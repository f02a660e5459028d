#include "src/ml/feature_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "src/support/hash.h"

namespace ml {
namespace {

static_assert(std::endian::native == std::endian::little,
              "FeatureStore persists raw little-endian columns");

constexpr char kHeaderMagic[8] = {'C', 'L', 'F', 'S', 'T', 'O', 'R', '1'};
constexpr char kFooterMagic[8] = {'C', 'L', 'F', 'S', 'E', 'N', 'D', '1'};
constexpr uint64_t kVersion = 1;
constexpr size_t kHeaderSize = 32;
constexpr size_t kFooterSize = 16;
constexpr size_t kFrameHeaderSize = 16;  // kind + reserved + payload_bytes.

enum BlockKind : uint32_t {
  kSchemaBlock = 1,
  kDataChunk = 2,
  kCodesChunk = 3,
  kStringTable = 4,
  kBinDirectory = 5,
  kDirectoryBlock = 6,
};

constexpr uint64_t Pad8(uint64_t n) { return (n + 7) & ~uint64_t{7}; }

template <typename T>
void AppendPod(std::vector<uint8_t>& out, const T& value) {
  const auto* bytes = reinterpret_cast<const uint8_t*>(&value);
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

void AppendBytes(std::vector<uint8_t>& out, const void* data, size_t size) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  out.insert(out.end(), bytes, bytes + size);
}

void AppendString(std::vector<uint8_t>& out, std::string_view s) {
  AppendPod(out, static_cast<uint32_t>(s.size()));
  AppendBytes(out, s.data(), s.size());
}

template <typename T>
T LoadPod(const uint8_t* p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

// Cursor over a validated payload for parsing variable-length records.
struct PayloadReader {
  const uint8_t* p;
  size_t remaining;

  template <typename T>
  bool Read(T& out) {
    if (remaining < sizeof(T)) {
      return false;
    }
    out = LoadPod<T>(p);
    p += sizeof(T);
    remaining -= sizeof(T);
    return true;
  }
  bool ReadString(std::string& out) {
    uint32_t len = 0;
    if (!Read(len) || remaining < len) {
      return false;
    }
    out.assign(reinterpret_cast<const char*>(p), len);
    p += len;
    remaining -= len;
    return true;
  }
};

// Expected data-chunk payload size: rows count, targets, columns, name ids.
uint64_t DataPayloadSize(uint64_t rows, uint64_t features) {
  return 8 + rows * (8 + features * 8 + 4);
}

uint64_t CodesPayloadSize(uint64_t rows, uint64_t features) {
  return 8 + rows * features;
}

support::Error MakeError(support::Error::Code code, const std::string& message) {
  return support::Error(code, message);
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

support::Result<std::unique_ptr<FeatureStoreWriter>> FeatureStoreWriter::Create(
    const std::string& path, std::vector<std::string> feature_names,
    std::vector<std::string> class_names, FeatureStoreOptions options) {
  auto writer = std::unique_ptr<FeatureStoreWriter>(new FeatureStoreWriter());
  writer->path_ = path;
  writer->options_ = options;
  writer->options_.chunk_rows = std::max<size_t>(1, options.chunk_rows);
  writer->options_.max_bins = std::clamp<uint16_t>(options.max_bins, 2, 256);
  writer->feature_names_ = std::move(feature_names);
  writer->class_names_ = std::move(class_names);
  writer->file_.open(path, std::ios::in | std::ios::out | std::ios::binary |
                               std::ios::trunc);
  if (!writer->file_) {
    return MakeError(support::Error::Code::kNotFound,
                     "feature store: cannot create " + path);
  }

  const size_t d = writer->feature_names_.size();
  writer->chunk_columns_.resize(d);
  writer->distinct_values_.resize(d);
  writer->distinct_counts_.resize(d);

  // Header.
  std::vector<uint8_t> header;
  AppendBytes(header, kHeaderMagic, sizeof(kHeaderMagic));
  AppendPod(header, kVersion);
  AppendPod(header, uint64_t{writer->class_names_.empty() ? 0u : 1u});
  AppendPod(header, static_cast<uint64_t>(writer->options_.chunk_rows));
  writer->file_.write(reinterpret_cast<const char*>(header.data()),
                      static_cast<std::streamsize>(header.size()));

  // Schema block first, so even a truncated file is interpretable.
  std::vector<uint8_t> schema;
  AppendPod(schema, static_cast<uint64_t>(d));
  AppendPod(schema, static_cast<uint64_t>(writer->class_names_.size()));
  AppendString(schema, writer->class_names_.empty() ? "target" : "class");
  for (const auto& name : writer->feature_names_) {
    AppendString(schema, name);
  }
  for (const auto& name : writer->class_names_) {
    AppendString(schema, name);
  }
  writer->WriteBlock(kSchemaBlock, schema);
  if (!writer->file_) {
    return MakeError(support::Error::Code::kInternal,
                     "feature store: header write failed for " + path);
  }
  return writer;
}

uint32_t FeatureStoreWriter::InternString(std::string_view name) {
  const auto it = string_ids_.find(std::string(name));
  if (it != string_ids_.end()) {
    return it->second;
  }
  const auto id = static_cast<uint32_t>(strings_.size());
  strings_.emplace_back(name);
  string_ids_.emplace(strings_.back(), id);
  return id;
}

void FeatureStoreWriter::Append(std::string_view name,
                                std::span<const double> features, double target) {
  assert(!finished_);
  assert(features.size() == feature_names_.size());
  if (!class_names_.empty()) {
    assert(target >= 0 && target < static_cast<double>(class_names_.size()));
  }
  for (size_t j = 0; j < features.size(); ++j) {
    chunk_columns_[j].push_back(features[j]);
  }
  chunk_targets_.push_back(target);
  chunk_name_ids_.push_back(InternString(name));
  ++rows_appended_;
  if (chunk_targets_.size() >= options_.chunk_rows) {
    FlushChunk();
  }
}

void FeatureStoreWriter::MergeChunkDistincts() {
  // Fold this chunk's sorted distinct (value, count) runs into the
  // cumulative per-column lists, so Finish() can quantile-bin without ever
  // materialising a full column.
  std::vector<double> sorted;
  for (size_t j = 0; j < chunk_columns_.size(); ++j) {
    sorted.assign(chunk_columns_[j].begin(), chunk_columns_[j].end());
    std::sort(sorted.begin(), sorted.end());
    auto& values = distinct_values_[j];
    auto& counts = distinct_counts_[j];
    std::vector<double> merged_values;
    std::vector<size_t> merged_counts;
    merged_values.reserve(values.size() + sorted.size());
    merged_counts.reserve(values.size() + sorted.size());
    size_t a = 0;  // Cursor into the cumulative list.
    size_t b = 0;  // Cursor into the chunk's sorted raw values.
    auto push = [&](double v, size_t c) {
      if (!merged_values.empty() && merged_values.back() == v) {
        merged_counts.back() += c;
      } else {
        merged_values.push_back(v);
        merged_counts.push_back(c);
      }
    };
    while (a < values.size() || b < sorted.size()) {
      if (b >= sorted.size() || (a < values.size() && values[a] <= sorted[b])) {
        push(values[a], counts[a]);
        ++a;
      } else {
        push(sorted[b], 1);
        ++b;
      }
    }
    values = std::move(merged_values);
    counts = std::move(merged_counts);
  }
}

void FeatureStoreWriter::FlushChunk() {
  const uint64_t rows = chunk_targets_.size();
  if (rows == 0) {
    return;
  }
  MergeChunkDistincts();
  std::vector<uint8_t> payload;
  payload.reserve(DataPayloadSize(rows, feature_names_.size()));
  AppendPod(payload, rows);
  AppendBytes(payload, chunk_targets_.data(), rows * sizeof(double));
  for (auto& column : chunk_columns_) {
    AppendBytes(payload, column.data(), rows * sizeof(double));
  }
  AppendBytes(payload, chunk_name_ids_.data(), rows * sizeof(uint32_t));
  ChunkInfo info;
  info.data_offset = WriteBlock(kDataChunk, payload);
  info.rows = rows;
  chunk_index_.push_back(info);
  for (auto& column : chunk_columns_) {
    column.clear();
  }
  chunk_targets_.clear();
  chunk_name_ids_.clear();
}

uint64_t FeatureStoreWriter::WriteBlock(uint32_t kind,
                                        std::span<const uint8_t> payload) {
  file_.seekp(0, std::ios::end);
  const auto offset = static_cast<uint64_t>(file_.tellp());
  std::vector<uint8_t> frame;
  frame.reserve(kFrameHeaderSize + Pad8(payload.size()) + 8);
  AppendPod(frame, kind);
  AppendPod(frame, uint32_t{0});
  AppendPod(frame, static_cast<uint64_t>(payload.size()));
  AppendBytes(frame, payload.data(), payload.size());
  frame.resize(kFrameHeaderSize + Pad8(payload.size()), 0);
  AppendPod(frame, support::Crc64(payload.data(), payload.size()));
  file_.write(reinterpret_cast<const char*>(frame.data()),
              static_cast<std::streamsize>(frame.size()));
  return offset;
}

support::Result<uint64_t> FeatureStoreWriter::Finish() {
  if (finished_) {
    return MakeError(support::Error::Code::kFailedPrecondition,
                     "feature store: Finish called twice");
  }
  finished_ = true;
  FlushChunk();
  const size_t d = feature_names_.size();

  uint64_t bin_dir_offset = 0;
  if (options_.write_codes) {
    // Quantile bins from the merged distinct-value lists — the exact
    // arithmetic BinnedView::Build runs on an in-memory column, so stored
    // codes are bit-identical to a BinnedView of the same rows.
    std::vector<BinBoundaries> bins(d);
    for (size_t j = 0; j < d; ++j) {
      bins[j] = ComputeBinBoundaries(distinct_values_[j], distinct_counts_[j],
                                     rows_appended_, options_.max_bins);
    }

    // Second sequential pass: re-read each chunk's raw columns and emit its
    // uint8 code block. Peak memory stays one column of one chunk.
    file_.flush();
    std::ifstream reader(path_, std::ios::binary);
    if (!reader) {
      return MakeError(support::Error::Code::kInternal,
                       "feature store: reopen for codes pass failed");
    }
    std::vector<double> column;
    std::vector<uint8_t> payload;
    for (auto& info : chunk_index_) {
      const uint64_t rows = info.rows;
      payload.clear();
      payload.reserve(CodesPayloadSize(rows, d));
      AppendPod(payload, rows);
      column.resize(rows);
      for (size_t j = 0; j < d; ++j) {
        const uint64_t column_offset =
            info.data_offset + kFrameHeaderSize + 8 + (1 + j) * rows * 8;
        reader.seekg(static_cast<std::streamoff>(column_offset));
        reader.read(reinterpret_cast<char*>(column.data()),
                    static_cast<std::streamsize>(rows * sizeof(double)));
        if (!reader) {
          return MakeError(support::Error::Code::kInternal,
                           "feature store: codes pass re-read failed");
        }
        for (const double v : column) {
          payload.push_back(bins[j].CodeOf(v));
        }
      }
      info.codes_offset = WriteBlock(kCodesChunk, payload);
    }

    std::vector<uint8_t> bin_payload;
    for (size_t j = 0; j < d; ++j) {
      AppendPod(bin_payload, static_cast<uint32_t>(bins[j].num_bins()));
      AppendPod(bin_payload, static_cast<uint32_t>(bins[j].exact ? 1 : 0));
      AppendBytes(bin_payload, bins[j].thresholds.data(),
                  bins[j].thresholds.size() * sizeof(double));
    }
    bin_dir_offset = WriteBlock(kBinDirectory, bin_payload);
  }

  std::vector<uint8_t> string_payload;
  AppendPod(string_payload, static_cast<uint64_t>(strings_.size()));
  for (const auto& s : strings_) {
    AppendString(string_payload, s);
  }
  const uint64_t string_offset = WriteBlock(kStringTable, string_payload);

  std::vector<uint8_t> directory;
  AppendPod(directory, rows_appended_);
  AppendPod(directory, string_offset);
  AppendPod(directory, bin_dir_offset);
  AppendPod(directory, static_cast<uint64_t>(chunk_index_.size()));
  for (const auto& info : chunk_index_) {
    AppendPod(directory, info.data_offset);
    AppendPod(directory, info.codes_offset);
    AppendPod(directory, info.rows);
  }
  const uint64_t directory_offset = WriteBlock(kDirectoryBlock, directory);

  std::vector<uint8_t> footer;
  AppendPod(footer, directory_offset);
  AppendBytes(footer, kFooterMagic, sizeof(kFooterMagic));
  file_.seekp(0, std::ios::end);
  file_.write(reinterpret_cast<const char*>(footer.data()),
              static_cast<std::streamsize>(footer.size()));
  file_.flush();
  if (!file_) {
    return MakeError(support::Error::Code::kInternal,
                     "feature store: finalisation write failed");
  }
  file_.close();
  return rows_appended_;
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

namespace {

// A validated block: payload pointer + size, or invalid.
struct BlockView {
  bool ok = false;
  uint32_t kind = 0;
  const uint8_t* payload = nullptr;
  uint64_t payload_size = 0;
  uint64_t end_offset = 0;  // Offset just past the block.
};

// Frame + bounds + crc check for the block starting at `offset`.
BlockView ValidateBlock(const uint8_t* base, size_t file_size, uint64_t offset) {
  BlockView view;
  if (offset + kFrameHeaderSize + 8 > file_size || (offset & 7) != 0) {
    return view;
  }
  view.kind = LoadPod<uint32_t>(base + offset);
  view.payload_size = LoadPod<uint64_t>(base + offset + 8);
  const uint64_t end =
      offset + kFrameHeaderSize + Pad8(view.payload_size) + 8;
  if (end > file_size || end < offset) {
    return view;
  }
  view.payload = base + offset + kFrameHeaderSize;
  view.end_offset = end;
  const uint64_t stored_crc = LoadPod<uint64_t>(base + end - 8);
  view.ok = support::Crc64(view.payload, view.payload_size) == stored_crc;
  return view;
}

void ReleaseRange(const uint8_t* base, uint64_t begin, uint64_t length) {
  const long page = sysconf(_SC_PAGESIZE);
  if (page <= 0 || length == 0) {
    return;
  }
  const auto page_size = static_cast<uint64_t>(page);
  const uint64_t aligned_begin = begin & ~(page_size - 1);
  const uint64_t aligned_end = (begin + length + page_size - 1) & ~(page_size - 1);
  ::madvise(const_cast<uint8_t*>(base + aligned_begin),
            static_cast<size_t>(aligned_end - aligned_begin), MADV_DONTNEED);
}

}  // namespace

support::Result<FeatureStore> FeatureStore::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return MakeError(support::Error::Code::kNotFound,
                     "feature store: cannot open " + path);
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return MakeError(support::Error::Code::kInternal,
                     "feature store: stat failed for " + path);
  }
  const auto file_size = static_cast<size_t>(st.st_size);
  if (file_size < kHeaderSize) {
    ::close(fd);
    return MakeError(support::Error::Code::kParseError,
                     "feature store: file shorter than header");
  }
  void* mapping = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (mapping == MAP_FAILED) {
    ::close(fd);
    return MakeError(support::Error::Code::kInternal,
                     "feature store: mmap failed for " + path);
  }

  FeatureStore store;
  store.base_ = static_cast<const uint8_t*>(mapping);
  store.file_size_ = file_size;
  store.fd_ = fd;

  const uint8_t* base = store.base_;
  if (std::memcmp(base, kHeaderMagic, sizeof(kHeaderMagic)) != 0 ||
      LoadPod<uint64_t>(base + 8) != kVersion) {
    return MakeError(support::Error::Code::kParseError,
                     "feature store: bad magic/version in " + path);
  }

  // Schema: required, immediately after the header.
  const BlockView schema = ValidateBlock(base, file_size, kHeaderSize);
  if (!schema.ok || schema.kind != kSchemaBlock) {
    return MakeError(support::Error::Code::kParseError,
                     "feature store: schema block corrupt in " + path);
  }
  {
    PayloadReader cursor{schema.payload, schema.payload_size};
    uint64_t num_features = 0;
    uint64_t num_classes = 0;
    if (!cursor.Read(num_features) || !cursor.Read(num_classes) ||
        !cursor.ReadString(store.target_name_)) {
      return MakeError(support::Error::Code::kParseError,
                       "feature store: schema payload malformed");
    }
    store.feature_names_.resize(num_features);
    for (auto& name : store.feature_names_) {
      if (!cursor.ReadString(name)) {
        return MakeError(support::Error::Code::kParseError,
                         "feature store: schema payload malformed");
      }
    }
    store.class_names_.resize(num_classes);
    for (auto& name : store.class_names_) {
      if (!cursor.ReadString(name)) {
        return MakeError(support::Error::Code::kParseError,
                         "feature store: schema payload malformed");
      }
    }
  }
  const uint64_t d = store.feature_names_.size();

  auto parse_string_table = [&](const BlockView& block) {
    PayloadReader cursor{block.payload, block.payload_size};
    uint64_t count = 0;
    if (!cursor.Read(count)) {
      return;
    }
    store.string_table_.resize(count);
    for (auto& s : store.string_table_) {
      if (!cursor.ReadString(s)) {
        store.string_table_.clear();
        return;
      }
    }
  };

  // Fast path: footer -> directory -> per-chunk validation.
  bool directory_ok = false;
  if (file_size >= kHeaderSize + kFooterSize &&
      std::memcmp(base + file_size - 8, kFooterMagic, 8) == 0) {
    const uint64_t directory_offset = LoadPod<uint64_t>(base + file_size - 16);
    const BlockView dir = ValidateBlock(base, file_size, directory_offset);
    if (dir.ok && dir.kind == kDirectoryBlock) {
      PayloadReader cursor{dir.payload, dir.payload_size};
      uint64_t total_rows = 0;
      uint64_t string_offset = 0;
      uint64_t bin_dir_offset = 0;
      uint64_t num_chunks = 0;
      if (cursor.Read(total_rows) && cursor.Read(string_offset) &&
          cursor.Read(bin_dir_offset) && cursor.Read(num_chunks)) {
        directory_ok = true;
        bool all_codes_ok = bin_dir_offset != 0;

        if (bin_dir_offset != 0) {
          const BlockView bin_dir = ValidateBlock(base, file_size, bin_dir_offset);
          if (bin_dir.ok && bin_dir.kind == kBinDirectory) {
            PayloadReader bins{bin_dir.payload, bin_dir.payload_size};
            store.bins_.resize(d);
            for (auto& info : store.bins_) {
              uint32_t num_bins = 0;
              uint32_t exact = 0;
              if (!bins.Read(num_bins) || !bins.Read(exact) ||
                  bins.remaining < (num_bins > 0 ? (num_bins - 1) * 8u : 0)) {
                store.bins_.clear();
                break;
              }
              info.num_bins = static_cast<uint16_t>(num_bins);
              info.exact = exact != 0;
              const size_t thresholds = num_bins > 0 ? num_bins - 1 : 0;
              info.thresholds.resize(thresholds);
              if (thresholds > 0) {  // A one-bin feature has no thresholds.
                std::memcpy(info.thresholds.data(), bins.p, thresholds * 8);
              }
              bins.p += thresholds * 8;
              bins.remaining -= thresholds * 8;
            }
          }
          if (store.bins_.size() != d) {
            all_codes_ok = false;
          }
        }

        for (uint64_t c = 0; c < num_chunks; ++c) {
          uint64_t data_offset = 0;
          uint64_t codes_offset = 0;
          uint64_t rows = 0;
          if (!cursor.Read(data_offset) || !cursor.Read(codes_offset) ||
              !cursor.Read(rows)) {
            break;
          }
          const BlockView data = ValidateBlock(base, file_size, data_offset);
          if (!data.ok || data.kind != kDataChunk ||
              data.payload_size != DataPayloadSize(rows, d) ||
              LoadPod<uint64_t>(data.payload) != rows) {
            ++store.stats_.dropped_chunks;
            continue;
          }
          ChunkRef ref;
          ref.data_payload = data_offset + kFrameHeaderSize;
          ref.rows = rows;
          if (codes_offset != 0) {
            const BlockView codes = ValidateBlock(base, file_size, codes_offset);
            if (codes.ok && codes.kind == kCodesChunk &&
                codes.payload_size == CodesPayloadSize(rows, d)) {
              ref.codes_payload = codes_offset + kFrameHeaderSize;
              ReleaseRange(base, codes_offset, codes.end_offset - codes_offset);
            } else {
              all_codes_ok = false;
            }
          } else {
            all_codes_ok = false;
          }
          ReleaseRange(base, data_offset, data.end_offset - data_offset);
          ref.row_begin = store.total_rows_;
          store.total_rows_ += rows;
          store.chunks_.push_back(ref);
        }

        const BlockView strings = ValidateBlock(base, file_size, string_offset);
        if (strings.ok && strings.kind == kStringTable) {
          parse_string_table(strings);
        }
        store.has_codes_ = all_codes_ok;
      }
    }
  }

  if (!directory_ok) {
    // Scan recovery: torn footer or corrupt directory. Walk block frames
    // forward from the schema and keep every intact data chunk; codes are
    // not served in this mode (their pairing is only recorded in the lost
    // directory).
    store.stats_.recovered_by_scan = true;
    store.has_codes_ = false;
    uint64_t offset = schema.end_offset;
    while (offset < file_size) {
      if (offset + kFrameHeaderSize + 8 > file_size) {
        // Leftover tail bytes; a bare (stale) footer is not corruption.
        if (file_size - offset != kFooterSize ||
            std::memcmp(base + file_size - 8, kFooterMagic, 8) != 0) {
          ++store.stats_.dropped_chunks;
        }
        break;
      }
      const uint32_t kind = LoadPod<uint32_t>(base + offset);
      const uint64_t payload_size = LoadPod<uint64_t>(base + offset + 8);
      const uint64_t end = offset + kFrameHeaderSize + Pad8(payload_size) + 8;
      if (kind < kSchemaBlock || kind > kDirectoryBlock || end > file_size ||
          end <= offset) {
        // Unframeable bytes: truncated mid-block.
        ++store.stats_.dropped_chunks;
        break;
      }
      const BlockView block = ValidateBlock(base, file_size, offset);
      if (block.ok) {
        if (kind == kDataChunk &&
            payload_size >= 8 &&
            payload_size == DataPayloadSize(LoadPod<uint64_t>(block.payload), d)) {
          ChunkRef ref;
          ref.data_payload = offset + kFrameHeaderSize;
          ref.rows = LoadPod<uint64_t>(block.payload);
          ref.row_begin = store.total_rows_;
          store.total_rows_ += ref.rows;
          store.chunks_.push_back(ref);
        } else if (kind == kStringTable) {
          parse_string_table(block);
        }
        ReleaseRange(base, offset, end - offset);
      } else if (kind == kDataChunk) {
        ++store.stats_.dropped_chunks;
      }
      offset = end;
    }
  }

  return store;
}

FeatureStore::FeatureStore(FeatureStore&& other) noexcept { *this = std::move(other); }

FeatureStore& FeatureStore::operator=(FeatureStore&& other) noexcept {
  if (this == &other) {
    return *this;
  }
  Unmap();
  base_ = other.base_;
  file_size_ = other.file_size_;
  fd_ = other.fd_;
  feature_names_ = std::move(other.feature_names_);
  class_names_ = std::move(other.class_names_);
  target_name_ = std::move(other.target_name_);
  chunks_ = std::move(other.chunks_);
  string_table_ = std::move(other.string_table_);
  bins_ = std::move(other.bins_);
  total_rows_ = other.total_rows_;
  has_codes_ = other.has_codes_;
  stats_ = other.stats_;
  other.base_ = nullptr;
  other.file_size_ = 0;
  other.fd_ = -1;
  return *this;
}

FeatureStore::~FeatureStore() { Unmap(); }

void FeatureStore::Unmap() {
  if (base_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(base_), file_size_);
    base_ = nullptr;
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

FeatureStore::Chunk FeatureStore::chunk(size_t i) const {
  const ChunkRef& ref = chunks_[i];
  Chunk out;
  out.rows = ref.rows;
  out.row_begin = ref.row_begin;
  const uint8_t* payload = base_ + ref.data_payload;
  out.targets = {reinterpret_cast<const double*>(payload + 8), ref.rows};
  out.columns = reinterpret_cast<const double*>(payload + 8 + ref.rows * 8);
  out.name_ids = {reinterpret_cast<const uint32_t*>(
                      payload + 8 + ref.rows * 8 * (1 + feature_names_.size())),
                  ref.rows};
  if (ref.codes_payload != 0) {
    out.codes = base_ + ref.codes_payload + 8;
  }
  return out;
}

void FeatureStore::ReleaseChunk(size_t i) const {
  const ChunkRef& ref = chunks_[i];
  ReleaseRange(base_, ref.data_payload,
               DataPayloadSize(ref.rows, feature_names_.size()));
  if (ref.codes_payload != 0) {
    ReleaseRange(base_, ref.codes_payload,
                 CodesPayloadSize(ref.rows, feature_names_.size()));
  }
}

size_t FeatureStore::ChunkOf(size_t global_row) const {
  assert(global_row < total_rows_);
  size_t lo = 0;
  size_t hi = chunks_.size();
  while (lo + 1 < hi) {
    const size_t mid = (lo + hi) / 2;
    if (chunks_[mid].row_begin <= global_row) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

const std::string& FeatureStore::RowName(size_t global_row) const {
  static const std::string kUnknown;
  const size_t c = ChunkOf(global_row);
  const Chunk view = chunk(c);
  const uint32_t id = view.name_ids[global_row - view.row_begin];
  return id < string_table_.size() ? string_table_[id] : kUnknown;
}

std::vector<double> FeatureStore::GatherRow(size_t global_row) const {
  const size_t c = ChunkOf(global_row);
  const Chunk view = chunk(c);
  const size_t r = global_row - view.row_begin;
  std::vector<double> out(feature_names_.size());
  for (size_t j = 0; j < out.size(); ++j) {
    out[j] = view.Column(j)[r];
  }
  return out;
}

Dataset FeatureStore::ToDataset() const {
  Dataset data = is_classification()
                     ? Dataset::ForClassification(feature_names_, class_names_)
                     : Dataset::ForRegression(feature_names_, target_name_);
  data.Reserve(total_rows_);
  const size_t d = feature_names_.size();
  std::vector<double> row_major;
  for (size_t c = 0; c < chunks_.size(); ++c) {
    const Chunk view = chunk(c);
    row_major.resize(view.rows * d);
    for (size_t j = 0; j < d; ++j) {
      const auto column = view.Column(j);
      for (size_t r = 0; r < view.rows; ++r) {
        row_major[r * d + j] = column[r];
      }
    }
    data.AppendRows(row_major, view.targets);
    ReleaseChunk(c);
  }
  return data;
}

}  // namespace ml
