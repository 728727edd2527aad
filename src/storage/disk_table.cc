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
constexpr uint32_t kVersion = 2;

// Transient-I/O retry policy: an open or granule read gets kMaxIoRetries
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

/// Sections of a granule are padded to 8 bytes, so every column payload
/// and measure array starts aligned for its widest load.
size_t Pad8(size_t n) { return (n + 7) & ~size_t{7}; }

/// Index of the first of the `n` codes of `col` at or above `dict_size`,
/// or `n` when every code is valid. A branch-free screen over the payload
/// runs first; only a failing granule is searched code by code. A sub-byte
/// payload is screened a byte at a time through `byte_screen`, the
/// column's table of bytes holding a field at or above `dict_size`.
uint64_t FirstCodeOutOfRange(const PackedRef& col, uint64_t n,
                             uint32_t dict_size,
                             const ByteScreen& byte_screen) {
  if (col.width == PackedWidth::kConst) return n;
  if (col.bits < 32 && dict_size >= (uint64_t{1} << col.bits)) return n;
  bool any = false;
  switch (col.width) {
    case PackedWidth::kSub: {
      // Codes never straddle a byte; padding codes past `n` are zero.
      const auto* p = static_cast<const uint8_t*>(col.data);
      uint8_t bad = 0;
      for (size_t i = 0, nbytes = (n * col.bits + 7) / 8; i < nbytes; ++i) {
        bad |= byte_screen[p[i]];
      }
      any = bad != 0;
      break;
    }
    case PackedWidth::k8: {
      const auto* p = static_cast<const uint8_t*>(col.data);
      for (uint64_t i = 0; i < n; ++i) any |= p[i] >= dict_size;
      break;
    }
    case PackedWidth::k16: {
      const auto* p = static_cast<const uint16_t*>(col.data);
      for (uint64_t i = 0; i < n; ++i) any |= p[i] >= dict_size;
      break;
    }
    default: {
      const auto* p = static_cast<const uint32_t*>(col.data);
      for (uint64_t i = 0; i < n; ++i) any |= p[i] >= dict_size;
      break;
    }
  }
  if (!any) return n;
  for (uint64_t i = 0; i < n; ++i) {
    if (col.Get(i) >= dict_size) return i;
  }
  return n;
}

/// The screen of a sub-byte column: entry b is 1 when byte b holds a field
/// of `layout.bits` bits at or above `dict_size`. All zero for other widths.
ByteScreen MakeByteScreen(PackedColumn::Layout layout, uint32_t dict_size) {
  ByteScreen screen{};
  if (layout.width != PackedWidth::kSub) return screen;
  const unsigned field = (1u << layout.bits) - 1;
  for (unsigned b = 0; b < screen.size(); ++b) {
    for (unsigned shift = 0; shift < 8; shift += layout.bits) {
      screen[b] |= ((b >> shift) & field) >= dict_size ? 1 : 0;
    }
  }
  return screen;
}

/// Index of the first non-finite of `n` doubles, or `n`.
uint64_t FirstNonFinite(const double* values, uint64_t n) {
  constexpr uint64_t kExponent = 0x7FF0000000000000ULL;
  bool any = false;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t bits;
    std::memcpy(&bits, &values[i], sizeof bits);
    any |= (bits & kExponent) == kExponent;
  }
  if (!any) return n;
  for (uint64_t i = 0; i < n; ++i) {
    if (!std::isfinite(values[i])) return i;
  }
  return n;
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

/// Writes the header (everything before the granules) for a table shape.
/// Returns the file offset where the u64 row count lives, or -1 on error.
long WriteHeader(std::FILE* f, const Table& prototype) {
  if (!WriteU32(f, kMagic) || !WriteU32(f, kVersion)) return -1;
  if (!WriteU32(f, static_cast<uint32_t>(prototype.num_columns()))) return -1;
  if (!WriteU32(f, static_cast<uint32_t>(prototype.num_measures()))) {
    return -1;
  }
  for (size_t c = 0; c < prototype.num_columns(); ++c) {
    if (!WriteString(f, prototype.schema().name(c))) return -1;
    const ValueDictionary& dict = prototype.dictionary(c);
    if (!WriteU32(f, dict.size())) return -1;
    for (const auto& v : dict.values()) {
      if (!WriteString(f, v)) return -1;
    }
  }
  for (size_t m = 0; m < prototype.num_measures(); ++m) {
    if (!WriteString(f, prototype.measure_name(m))) return -1;
  }
  long row_count_offset = std::ftell(f);
  if (row_count_offset < 0) return -1;
  if (!WriteU64(f, 0)) return -1;
  return row_count_offset;
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
    SMARTDD_RETURN_IF_ERROR(writer->AppendRow(codes.data(), measures.data()));
  }
  return writer->Finish();
}

size_t DiskTable::GranuleBytes(uint64_t rows) const {
  size_t bytes = measure_names_.size() * rows * sizeof(double);
  for (const PackedColumn::Layout& layout : layouts_) {
    bytes += Pad8(PackedColumn::PayloadBytes(layout, rows));
  }
  return bytes;
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
  if (!ReadU32(f, &version)) return fail("truncated header");
  if (version != kVersion) {
    return fail(StrFormat("unsupported version %u (this build reads %u)",
                          version, kVersion));
  }
  if (!ReadU32(f, &num_cols)) return fail("truncated header");
  if (!ReadU32(f, &num_meas)) return fail("truncated header");

  auto t = std::shared_ptr<DiskTable>(new DiskTable());
  t->path_ = path;
  std::vector<std::string> names;
  for (uint32_t c = 0; c < num_cols; ++c) {
    std::string name;
    if (!ReadString(f, &name)) return fail("truncated column name");
    names.push_back(std::move(name));
    uint32_t dict_size;
    if (!ReadU32(f, &dict_size)) return fail("truncated dict size");
    auto dict = std::make_shared<ValueDictionary>();
    for (uint32_t i = 0; i < dict_size; ++i) {
      std::string v;
      if (!ReadString(f, &v)) return fail("truncated dict entry");
      dict->GetOrAdd(v);
    }
    if (dict->size() != dict_size) return fail("duplicate dict entries");
    t->layouts_.push_back(PackedColumn::LayoutFor(dict_size));
    t->byte_screens_.push_back(
        MakeByteScreen(t->layouts_.back(), dict_size));
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
  std::fclose(f);
  return t;
}

Status DiskTable::ScanRange(uint64_t row_begin, uint64_t row_end,
                            const BlockCallback& fn) const {
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
  auto fail = [&](Status status) {
    std::fclose(f);
    return status;
  };
  const size_t full_bytes = GranuleBytes(kGranuleRows);
  uint64_t g = row_begin / kGranuleRows;
  if (!SeekTo(f, data_offset_ + g * full_bytes)) {
    return fail(Status::IOError("seek failed: " + path_));
  }
  const size_t num_cols = schema_.num_columns();
  const size_t num_meas = measure_names_.size();
  // One granule, with the kernels' over-read padding. Byte storage from
  // operator new is aligned for every payload type; the column readers and
  // measure arrays point into it.
  const auto buf = std::make_unique<uint8_t[]>(full_bytes + kPackedPadBytes);
  uint8_t* base = buf.get();
  std::vector<PackedRef> columns(num_cols);
  std::vector<const double*> measures(num_meas);
  ScanBlock block;
  block.columns = columns.data();
  block.num_columns = num_cols;
  block.measures = measures.data();
  block.num_measures = num_meas;
  // The file is untrusted: a code outside its column's dictionary or a
  // non-finite measure fails the scan instead of reaching the search.
  auto corrupt = [&](uint64_t at, const std::string& what) {
    return fail(Status::IOError(
        StrFormat("disk table corrupt at row %llu: ",
                  static_cast<unsigned long long>(at)) +
        what + ": " + path_));
  };

  for (; g * kGranuleRows < row_end; ++g) {
    const uint64_t g0 = g * kGranuleRows;
    const uint64_t rows = std::min<uint64_t>(kGranuleRows, num_rows_ - g0);
    const size_t bytes = GranuleBytes(rows);
    // A short or failed read is retried from the granule's start offset
    // (clearerr + re-seek), so a torn read from a flaky device heals without
    // the callback ever seeing a duplicate or missing row.
    for (int attempt = 0;; ++attempt) {
      bool short_read = false;
      Status injected = InjectFault("disk_table.read", &short_read);
      if (injected.ok()) {
        size_t got = std::fread(base, 1, bytes, f);
        if (short_read) got /= 2;
        if (got == bytes) break;
        injected = Status::IOError(
            StrFormat("disk table truncated in the granule at row %llu",
                      static_cast<unsigned long long>(g0)));
      }
      if (attempt >= kMaxIoRetries) return fail(injected);
      IoRetries().Inc();
      BackoffSleep(attempt);
      std::clearerr(f);
      if (!SeekTo(f, data_offset_ + g * full_bytes)) {
        return fail(Status::IOError("seek failed: " + path_));
      }
    }
    size_t off = 0;
    for (size_t c = 0; c < num_cols; ++c) {
      PackedRef& col = columns[c];
      col.data = base + off;
      col.n = rows;
      col.width = layouts_[c].width;
      col.bits = layouts_[c].bits;
      const uint32_t dict_size = dicts_[c]->size();
      const uint64_t bad =
          FirstCodeOutOfRange(col, rows, dict_size, byte_screens_[c]);
      if (bad < rows) {
        return corrupt(g0 + bad,
                       StrFormat("code %u out of dictionary range %u in "
                                 "column %zu",
                                 col.Get(bad), dict_size, c));
      }
      off += Pad8(PackedColumn::PayloadBytes(layouts_[c], rows));
    }
    for (size_t m = 0; m < num_meas; ++m) {
      measures[m] = reinterpret_cast<const double*>(base + off);
      const uint64_t bad = FirstNonFinite(measures[m], rows);
      if (bad < rows) {
        return corrupt(g0 + bad,
                       StrFormat("non-finite value in measure %zu", m));
      }
      off += rows * sizeof(double);
    }
    block.row_begin = std::max(row_begin, g0);
    block.offset = block.row_begin - g0;
    block.num_rows =
        static_cast<size_t>(std::min(row_end, g0 + rows) - block.row_begin);
    if (!fn(block)) break;
  }
  std::fclose(f);
  return Status::OK();
}

Table DiskTable::MakeEmptyTable() const {
  return Table::EmptyWithDictionaries(schema_.names(), dicts_, measure_names_);
}

// --- DiskTableWriter ---------------------------------------------------

Result<std::unique_ptr<DiskTableWriter>> DiskTableWriter::Create(
    const Table& prototype, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return Status::IOError("cannot create disk table: " + path);
  long row_count_offset = WriteHeader(f, prototype);
  if (row_count_offset < 0) {
    std::fclose(f);
    return Status::IOError("failed writing disk table header: " + path);
  }

  auto w = std::unique_ptr<DiskTableWriter>(new DiskTableWriter());
  w->file_ = f;
  w->path_ = path;
  w->num_measures_ = prototype.num_measures();
  w->row_count_offset_ = row_count_offset;
  for (size_t c = 0; c < prototype.num_columns(); ++c) {
    w->dict_sizes_.push_back(prototype.dictionary(c).size());
  }
  w->codes_.resize(prototype.num_columns() * kGranuleRows);
  w->measures_.resize(w->num_measures_ * kGranuleRows);
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
  for (size_t c = 0; c < dict_sizes_.size(); ++c) {
    if (codes[c] >= dict_sizes_[c]) {
      return Status::InvalidArgument(StrFormat(
          "code %u out of dictionary range %u in column %zu (dictionaries "
          "must be final before DiskTableWriter::Create)",
          codes[c], dict_sizes_[c], c));
    }
  }
  for (size_t c = 0; c < dict_sizes_.size(); ++c) {
    codes_[c * kGranuleRows + buffered_] = codes[c];
  }
  for (size_t m = 0; m < num_measures_; ++m) {
    measures_[m * kGranuleRows + buffered_] = measures[m];
  }
  ++rows_written_;
  if (++buffered_ == kGranuleRows) return FlushGranule();
  return Status::OK();
}

Status DiskTableWriter::FlushGranule() {
  static constexpr uint8_t kZeros[8] = {};
  for (size_t c = 0; c < dict_sizes_.size(); ++c) {
    // Pack exactly as a frozen column of this dictionary size is packed.
    PackedColumn col;
    col.Reserve(buffered_);
    const uint32_t* codes = codes_.data() + c * kGranuleRows;
    for (uint64_t i = 0; i < buffered_; ++i) col.Append(codes[i]);
    col.Freeze(dict_sizes_[c]);
    const size_t bytes = PackedColumn::PayloadBytes(
        PackedColumn::LayoutFor(dict_sizes_[c]), buffered_);
    if ((bytes > 0 && !WritePod(file_, col.ref().data, bytes)) ||
        !WritePod(file_, kZeros, Pad8(bytes) - bytes)) {
      return Status::IOError("short write to disk table: " + path_);
    }
  }
  for (size_t m = 0; m < num_measures_; ++m) {
    if (!WritePod(file_, measures_.data() + m * kGranuleRows,
                  buffered_ * sizeof(double))) {
      return Status::IOError("short write to disk table: " + path_);
    }
  }
  buffered_ = 0;
  return Status::OK();
}

Status DiskTableWriter::Finish() {
  SMARTDD_CHECK(!finished_) << "Finish called twice";
  finished_ = true;
  Status flushed = buffered_ > 0 ? FlushGranule() : Status::OK();
  if (!flushed.ok() || std::fseek(file_, row_count_offset_, SEEK_SET) != 0 ||
      std::fwrite(&rows_written_, 8, 1, file_) != 1) {
    std::fclose(file_);
    file_ = nullptr;
    return flushed.ok()
               ? Status::IOError("failed to patch row count: " + path_)
               : flushed;
  }
  int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) return Status::IOError("close failed: " + path_);
  return Status::OK();
}

}  // namespace smartdd
