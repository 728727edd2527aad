#include "live/table_versions.h"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "storage/csv.h"

namespace smartdd::live {

namespace {

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

LiveTable::LiveTable(LiveTableOptions options, size_t num_measures)
    : options_(std::move(options)), num_measures_(num_measures) {
  if (!options_.clock_ms) options_.clock_ms = SteadyNowMs;
}

Result<std::unique_ptr<LiveTable>> LiveTable::Create(Table base,
                                                     LiveTableOptions options) {
  if (!base.is_frozen()) base.Freeze();
  auto live = std::unique_ptr<LiveTable>(
      new LiveTable(std::move(options), base.num_measures()));
  live->num_columns_ = base.num_columns();
  auto snapshot = std::make_shared<TableSnapshot>();
  snapshot->version = 1;
  snapshot->table = std::move(base);
  live->latest_ = std::move(snapshot);
  live->last_publish_ms_ = live->options_.clock_ms();

  if (!live->options_.wal_path.empty()) {
    // Recovery first: replay the valid prefix into pending rows (the WAL is
    // truncated past the first torn frame), then start the writer at the
    // now-clean tail.
    auto stats = WalReplay(
        live->options_.wal_path, [&live](std::string_view payload) -> Status {
          std::vector<std::string> cells;
          std::vector<double> measures;
          SMARTDD_RETURN_IF_ERROR(live->ParseRow(payload, &cells, &measures));
          live->pending_.push_back({std::move(cells), std::move(measures)});
          return Status::OK();
        });
    if (!stats.ok()) return stats.status();
    if (stats->truncated_bytes > 0) {
      SMARTDD_LOG(Warning) << "live table WAL " << live->options_.wal_path
                           << ": truncated " << stats->truncated_bytes
                           << " torn-tail bytes, recovered " << stats->records
                           << " rows";
    }
    WalWriter::Options wal_options;
    wal_options.fsync_every_records = live->options_.fsync_every_records;
    auto writer = WalWriter::Open(live->options_.wal_path, wal_options);
    if (!writer.ok()) return writer.status();
    live->wal_ = std::move(writer).value();
    if (!live->pending_.empty()) {
      std::lock_guard<std::mutex> lock(live->mu_);
      live->PublishLocked();
    }
  }
  return live;
}

Status LiveTable::ParseRow(std::string_view csv_row,
                           std::vector<std::string>* cells,
                           std::vector<double>* measures) const {
  std::string input(csv_row);
  size_t pos = 0;
  std::vector<std::string> fields;
  if (!ParseCsvRecord(input, &pos, ',', &fields)) {
    return Status::InvalidArgument("empty append row");
  }
  if (pos < input.size()) {
    return Status::InvalidArgument(
        "append row holds more than one CSV record");
  }
  if (fields.size() != num_columns_ + num_measures_) {
    return Status::InvalidArgument(StrFormat(
        "append row has %zu fields, table expects %zu (%zu categorical + "
        "%zu measure)",
        fields.size(), num_columns_ + num_measures_, num_columns_,
        num_measures_));
  }
  cells->assign(fields.begin(),
                fields.begin() + static_cast<ptrdiff_t>(num_columns_));
  for (std::string& cell : *cells) {
    if (cell.empty()) cell = "?missing";
  }
  measures->clear();
  for (size_t m = 0; m < num_measures_; ++m) {
    const std::string& field = fields[num_columns_ + m];
    char* end = nullptr;
    double value = std::strtod(field.c_str(), &end);
    if (end == field.c_str() || *end != '\0' || !std::isfinite(value)) {
      return Status::InvalidArgument(StrFormat(
          "measure field '%s' is not a finite number", field.c_str()));
    }
    measures->push_back(value);
  }
  return Status::OK();
}

Status LiveTable::Append(std::string_view csv_row) {
  std::vector<std::string> cells;
  std::vector<double> measures;
  SMARTDD_RETURN_IF_ERROR(ParseRow(csv_row, &cells, &measures));
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_ != nullptr) {
    SMARTDD_RETURN_IF_ERROR(wal_->Append(csv_row));
  }
  return AppendParsedLocked(std::move(cells), std::move(measures));
}

Status LiveTable::AppendParsedLocked(std::vector<std::string> cells,
                                     std::vector<double> measures) {
  pending_.push_back({std::move(cells), std::move(measures)});
  bool publish = options_.snapshot_every_rows > 0 &&
                 pending_.size() >= options_.snapshot_every_rows;
  if (!publish && options_.snapshot_every_ms > 0) {
    publish =
        options_.clock_ms() - last_publish_ms_ >= options_.snapshot_every_ms;
  }
  if (publish) PublishLocked();
  return Status::OK();
}

void LiveTable::PublishLocked() {
  if (pending_.empty()) return;
  auto next = std::make_shared<TableSnapshot>();
  next->version = latest_->version + 1;
  next->table = latest_->table.UnfrozenCopyWithPrivateDicts();
  for (const PendingRow& row : pending_) {
    // Arity was validated before the row entered pending/WAL, so this
    // cannot fail.
    Status status = next->table.AppendRowValues(row.cells, row.measures);
    SMARTDD_CHECK(status.ok()) << status.ToString();
  }
  next->table.Freeze();
  pending_.clear();
  latest_ = std::move(next);
  last_publish_ms_ = options_.clock_ms();
}

std::shared_ptr<const TableSnapshot> LiveTable::PublishSnapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  PublishLocked();
  return latest_;
}

std::shared_ptr<const TableSnapshot> LiveTable::Latest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latest_;
}

LiveTableInfo LiveTable::Info() const {
  std::lock_guard<std::mutex> lock(mu_);
  LiveTableInfo info;
  info.version = latest_->version;
  info.rows = latest_->table.num_rows();
  info.pending_rows = pending_.size();
  info.wal_bytes = wal_ != nullptr ? wal_->byte_size() : 0;
  return info;
}

Status LiveTable::SyncWal() {
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_ == nullptr) return Status::OK();
  return wal_->Sync();
}

}  // namespace smartdd::live
