#include "storage/disk_table.h"

#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"

namespace smartdd {

namespace {

constexpr uint32_t kMagic = 0x54444453;  // "SDDT" little-endian
constexpr uint32_t kVersion = 1;
constexpr size_t kScanBufferBytes = 4 << 20;  // 4 MiB read buffer

// Transient-I/O retry policy: an open or block read gets kMaxIoRetries
// additional attempts with exponential backoff (1ms, 2ms, 4ms) before its
// error escapes to the caller. Retries re-seek and re-read, never
// re-deliver rows, so the scan callback observes each tuple exactly once.
constexpr int kMaxIoRetries = 3;

Counter& IoRetries() {
  static Counter* counter = &MetricsRegistry::Default().GetCounter(
      "smartdd_io_retries_total",
      "Disk table open/read attempts retried after a transient failure");
  return *counter;
}

void BackoffSleep(int attempt) {
  std::this_thread::sleep_for(std::chrono::milliseconds(1LL << attempt));
}

uint8_t WidthForDictSize(uint32_t dict_size) {
  if (dict_size <= 0x100) return 1;
  if (dict_size <= 0x10000) return 2;
  return 4;
}

bool WritePod(std::FILE* f, const void* data, size_t n) {
  return std::fwrite(data, 1, n, f) == n;
}

bool WriteU32(std::FILE* f, uint32_t v) { return WritePod(f, &v, 4); }
bool WriteU64(std::FILE* f, uint64_t v) { return WritePod(f, &v, 8); }

bool WriteString(std::FILE* f, const std::string& s) {
  return WriteU32(f, static_cast<uint32_t>(s.size())) &&
         WritePod(f, s.data(), s.size());
}

bool ReadPod(std::FILE* f, void* data, size_t n) {
  return std::fread(data, 1, n, f) == n;
}

/// 64-bit-safe absolute seek: chunked range scans of multi-GiB tables need
/// byte offsets beyond what a `long` holds on LLP64 platforms.
bool SeekTo(std::FILE* f, uint64_t offset) {
#if defined(_WIN32)
  return _fseeki64(f, static_cast<long long>(offset), SEEK_SET) == 0;
#else
  return fseeko(f, static_cast<off_t>(offset), SEEK_SET) == 0;
#endif
}

bool ReadU32(std::FILE* f, uint32_t* v) { return ReadPod(f, v, 4); }
bool ReadU64(std::FILE* f, uint64_t* v) { return ReadPod(f, v, 8); }

bool ReadString(std::FILE* f, std::string* s) {
  uint32_t len;
  if (!ReadU32(f, &len)) return false;
  s->resize(len);
  return len == 0 || ReadPod(f, s->data(), len);
}

/// Writes the header (everything before the row data) for a table shape.
/// Returns the file offset where the u64 row count lives, or -1 on error.
long WriteHeader(std::FILE* f, const Schema& schema,
                 const std::vector<std::shared_ptr<ValueDictionary>>& dicts,
                 const std::vector<std::string>& measure_names,
                 uint64_t num_rows) {
  if (!WriteU32(f, kMagic) || !WriteU32(f, kVersion)) return -1;
  if (!WriteU32(f, static_cast<uint32_t>(schema.num_columns()))) return -1;
  if (!WriteU32(f, static_cast<uint32_t>(measure_names.size()))) return -1;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (!WriteString(f, schema.name(c))) return -1;
    uint8_t width = WidthForDictSize(dicts[c]->size());
    if (!WritePod(f, &width, 1)) return -1;
    if (!WriteU32(f, dicts[c]->size())) return -1;
    for (const auto& v : dicts[c]->values()) {
      if (!WriteString(f, v)) return -1;
    }
  }
  for (const auto& m : measure_names) {
    if (!WriteString(f, m)) return -1;
  }
  long row_count_offset = std::ftell(f);
  if (row_count_offset < 0) return -1;
  if (!WriteU64(f, num_rows)) return -1;
  return row_count_offset;
}

void EncodeRow(const uint32_t* codes, const double* measures,
               const std::vector<uint8_t>& widths, size_t num_measures,
               uint8_t* out) {
  size_t off = 0;
  for (size_t c = 0; c < widths.size(); ++c) {
    std::memcpy(out + off, &codes[c], widths[c]);
    off += widths[c];
  }
  for (size_t m = 0; m < num_measures; ++m) {
    std::memcpy(out + off, &measures[m], 8);
    off += 8;
  }
}

}  // namespace

// --- DiskTable --------------------------------------------------------

Status DiskTable::Write(const Table& table, const std::string& path) {
  auto writer_or = DiskTableWriter::Create(table, path);
  if (!writer_or.ok()) return writer_or.status();
  auto writer = std::move(writer_or).value();
  std::vector<uint32_t> codes(table.num_columns());
  std::vector<double> measures(table.num_measures());
  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    table.GetRow(r, codes.data());
    for (size_t m = 0; m < table.num_measures(); ++m) {
      measures[m] = table.measure(m, r);
    }
    SMARTDD_RETURN_IF_ERROR(writer->AppendRow(
        codes.data(), measures.empty() ? nullptr : measures.data()));
  }
  return writer->Finish();
}

Result<std::shared_ptr<DiskTable>> DiskTable::Open(const std::string& path) {
  // Treat open failures as transient (NFS blips, fd-limit races): bounded
  // retry with backoff. Header parse errors below are structural and fail
  // immediately.
  std::FILE* f = nullptr;
  for (int attempt = 0;; ++attempt) {
    Status injected = InjectFault("disk_table.open");
    if (injected.ok()) {
      f = std::fopen(path.c_str(), "rb");
      if (f != nullptr) break;
      injected = Status::IOError("cannot open disk table: " + path);
    }
    if (attempt >= kMaxIoRetries) return injected;
    IoRetries().Inc();
    BackoffSleep(attempt);
  }
  auto fail = [&](const std::string& msg) -> Status {
    std::fclose(f);
    return Status::IOError(msg + ": " + path);
  };

  uint32_t magic, version, num_cols, num_meas;
  if (!ReadU32(f, &magic) || magic != kMagic) return fail("bad magic");
  if (!ReadU32(f, &version) || version != kVersion) return fail("bad version");
  if (!ReadU32(f, &num_cols)) return fail("truncated header");
  if (!ReadU32(f, &num_meas)) return fail("truncated header");

  auto t = std::shared_ptr<DiskTable>(new DiskTable());
  t->path_ = path;
  std::vector<std::string> names;
  for (uint32_t c = 0; c < num_cols; ++c) {
    std::string name;
    if (!ReadString(f, &name)) return fail("truncated column name");
    names.push_back(std::move(name));
    uint8_t width;
    if (!ReadPod(f, &width, 1)) return fail("truncated width");
    if (width != 1 && width != 2 && width != 4) return fail("bad cell width");
    t->widths_.push_back(width);
    uint32_t dict_size;
    if (!ReadU32(f, &dict_size)) return fail("truncated dict size");
    auto dict = std::make_shared<ValueDictionary>();
    for (uint32_t i = 0; i < dict_size; ++i) {
      std::string v;
      if (!ReadString(f, &v)) return fail("truncated dict entry");
      dict->GetOrAdd(v);
    }
    if (dict->size() != dict_size) return fail("duplicate dict entries");
    t->dicts_.push_back(std::move(dict));
  }
  t->schema_ = Schema(std::move(names));
  for (uint32_t m = 0; m < num_meas; ++m) {
    std::string name;
    if (!ReadString(f, &name)) return fail("truncated measure name");
    t->measure_names_.push_back(std::move(name));
  }
  if (!ReadU64(f, &t->num_rows_)) return fail("truncated row count");
  long off = std::ftell(f);
  if (off < 0) return fail("ftell failed");
  t->data_offset_ = static_cast<uint64_t>(off);
  t->row_bytes_ = 0;
  for (uint8_t w : t->widths_) t->row_bytes_ += w;
  t->row_bytes_ += 8 * t->measure_names_.size();
  std::fclose(f);
  return t;
}

Status DiskTable::ScanRange(uint64_t row_begin, uint64_t row_end,
                            const ScanCallback& fn) const {
  row_end = std::min(row_end, num_rows_);
  if (row_begin >= row_end) return Status::OK();
  std::FILE* f = nullptr;
  for (int attempt = 0;; ++attempt) {
    Status injected = InjectFault("disk_table.scan_open");
    if (injected.ok()) {
      f = std::fopen(path_.c_str(), "rb");
      if (f != nullptr) break;
      injected = Status::IOError("cannot open disk table: " + path_);
    }
    if (attempt >= kMaxIoRetries) return injected;
    IoRetries().Inc();
    BackoffSleep(attempt);
  }
  if (!SeekTo(f, data_offset_ + row_begin * row_bytes_)) {
    std::fclose(f);
    return Status::IOError("seek failed: " + path_);
  }
  const size_t num_cols = schema_.num_columns();
  const size_t num_meas = measure_names_.size();
  const size_t rows_per_block =
      row_bytes_ == 0 ? 1 : std::max<size_t>(1, kScanBufferBytes / row_bytes_);
  std::vector<uint8_t> buf(rows_per_block * row_bytes_);
  std::vector<uint32_t> codes(num_cols);
  std::vector<double> measures(num_meas);
  // Byte offset of each column within a row, hoisted out of the decode loop
  // so the per-cell work is one fixed-width load selected by the switch
  // below (the compiler turns the 1/2/4 memcpy cases into plain loads).
  std::vector<size_t> col_off(num_cols);
  {
    size_t off = 0;
    for (size_t c = 0; c < num_cols; ++c) {
      col_off[c] = off;
      off += widths_[c];
    }
  }
  const size_t meas_off = num_cols == 0
                              ? 0
                              : col_off[num_cols - 1] + widths_[num_cols - 1];
  // The file is untrusted: a code outside its column's dictionary or a
  // non-finite measure fails the scan instead of reaching the search.
  std::vector<size_t> dict_sizes(num_cols);
  for (size_t c = 0; c < num_cols; ++c) dict_sizes[c] = dicts_[c]->size();
  auto corrupt = [&](uint64_t at, const std::string& what) {
    std::fclose(f);
    return Status::IOError(
        StrFormat("disk table corrupt at row %llu: ",
                  static_cast<unsigned long long>(at)) +
        what + ": " + path_);
  };

  uint64_t row = row_begin;
  bool keep_going = true;
  while (keep_going && row < row_end) {
    uint64_t want = std::min<uint64_t>(rows_per_block, row_end - row);
    // A short or failed block read is retried from the block's start offset
    // (clearerr + re-seek), so a torn read from a flaky device heals without
    // the callback ever seeing a duplicate or missing row.
    const uint64_t block_offset = data_offset_ + row * row_bytes_;
    size_t got = 0;
    for (int attempt = 0;; ++attempt) {
      bool short_read = false;
      Status injected = InjectFault("disk_table.read", &short_read);
      if (injected.ok()) {
        got = std::fread(buf.data(), row_bytes_, want, f);
        if (short_read) got /= 2;
        if (got == want) break;
        injected = Status::IOError(
            StrFormat("disk table truncated at row %llu",
                      static_cast<unsigned long long>(row + got)));
      }
      if (attempt >= kMaxIoRetries) {
        std::fclose(f);
        return injected;
      }
      IoRetries().Inc();
      BackoffSleep(attempt);
      std::clearerr(f);
      if (!SeekTo(f, block_offset)) {
        std::fclose(f);
        return Status::IOError("seek failed: " + path_);
      }
    }
    const uint8_t* p = buf.data();
    for (uint64_t i = 0; i < want; ++i) {
      for (size_t c = 0; c < num_cols; ++c) {
        const uint8_t* q = p + col_off[c];
        switch (widths_[c]) {
          case 1:
            codes[c] = *q;
            break;
          case 2: {
            uint16_t v;
            std::memcpy(&v, q, 2);
            codes[c] = v;
            break;
          }
          default: {
            uint32_t v;
            std::memcpy(&v, q, 4);
            codes[c] = v;
            break;
          }
        }
        if (codes[c] >= dict_sizes[c]) {
          return corrupt(row, StrFormat("code %u out of dictionary range %zu "
                                        "in column %zu",
                                        codes[c], dict_sizes[c], c));
        }
      }
      size_t off = meas_off;
      for (size_t m = 0; m < num_meas; ++m) {
        std::memcpy(&measures[m], p + off, 8);
        off += 8;
        if (!std::isfinite(measures[m])) {
          return corrupt(row, StrFormat("non-finite value in measure %zu", m));
        }
      }
      if (!fn(row, codes.data(), num_meas ? measures.data() : nullptr)) {
        keep_going = false;
        break;
      }
      ++row;
      p += row_bytes_;
    }
  }
  std::fclose(f);
  return Status::OK();
}

Table DiskTable::MakeEmptyTable() const {
  Table t(schema_.names());
  // Rebuild a Table whose dictionaries are the shared ones from this file.
  // Table::EmptyLike only works Table->Table, so reconstruct manually: add
  // values in code order so codes line up, via a prototype.
  Table proto(schema_.names());
  for (size_t c = 0; c < dicts_.size(); ++c) {
    for (const auto& v : dicts_[c]->values()) proto.EncodeValue(c, v);
  }
  for (const auto& m : measure_names_) proto.AddMeasureColumn(m);
  return proto;
}

// --- DiskTableWriter ---------------------------------------------------

Result<std::unique_ptr<DiskTableWriter>> DiskTableWriter::Create(
    const Table& prototype, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return Status::IOError("cannot create disk table: " + path);

  std::vector<std::shared_ptr<ValueDictionary>> dicts;
  for (size_t c = 0; c < prototype.num_columns(); ++c) {
    dicts.push_back(prototype.dictionary_ptr(c));
  }
  std::vector<std::string> measure_names;
  for (size_t m = 0; m < prototype.num_measures(); ++m) {
    measure_names.push_back(prototype.measure_name(m));
  }
  long row_count_offset =
      WriteHeader(f, prototype.schema(), dicts, measure_names, 0);
  if (row_count_offset < 0) {
    std::fclose(f);
    return Status::IOError("failed writing disk table header: " + path);
  }

  auto w = std::unique_ptr<DiskTableWriter>(new DiskTableWriter());
  w->file_ = f;
  w->path_ = path;
  w->num_measures_ = measure_names.size();
  w->row_count_offset_ = row_count_offset;
  size_t row_bytes = 0;
  for (size_t c = 0; c < prototype.num_columns(); ++c) {
    uint8_t width = WidthForDictSize(prototype.dictionary(c).size());
    w->widths_.push_back(width);
    w->dict_sizes_.push_back(prototype.dictionary(c).size());
    row_bytes += width;
  }
  row_bytes += 8 * w->num_measures_;
  w->row_buf_.resize(row_bytes);
  return w;
}

DiskTableWriter::~DiskTableWriter() {
  if (file_ != nullptr && !finished_) {
    SMARTDD_LOG(Warning) << "DiskTableWriter destroyed without Finish(): "
                         << path_;
    std::fclose(file_);
  }
}

Status DiskTableWriter::AppendRow(const uint32_t* codes,
                                  const double* measures) {
  SMARTDD_CHECK(!finished_) << "AppendRow after Finish";
  for (size_t c = 0; c < widths_.size(); ++c) {
    if (codes[c] >= dict_sizes_[c]) {
      return Status::InvalidArgument(StrFormat(
          "code %u out of dictionary range %u in column %zu (dictionaries "
          "must be final before DiskTableWriter::Create)",
          codes[c], dict_sizes_[c], c));
    }
  }
  EncodeRow(codes, measures, widths_, num_measures_, row_buf_.data());
  if (std::fwrite(row_buf_.data(), 1, row_buf_.size(), file_) !=
      row_buf_.size()) {
    return Status::IOError("short write to disk table: " + path_);
  }
  ++rows_written_;
  return Status::OK();
}

Status DiskTableWriter::Finish() {
  SMARTDD_CHECK(!finished_) << "Finish called twice";
  finished_ = true;
  if (std::fseek(file_, row_count_offset_, SEEK_SET) != 0 ||
      std::fwrite(&rows_written_, 8, 1, file_) != 1) {
    std::fclose(file_);
    file_ = nullptr;
    return Status::IOError("failed to patch row count: " + path_);
  }
  int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) return Status::IOError("close failed: " + path_);
  return Status::OK();
}

}  // namespace smartdd
