// Out-of-core columnar feature store: format round-trips, string-table
// dedup, chunk-boundary cases, corruption tolerance (bit flips, truncation,
// torn directory), binning parity with the in-memory BinnedView, and the
// streamed-vs-in-memory training bit-identity the store exists to provide.
#include "src/ml/feature_store.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/ml/binned.h"
#include "src/ml/dataset.h"
#include "src/ml/eval.h"
#include "src/ml/tree.h"
#include "src/support/rng.h"

namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

// Synthetic classification rows: a few informative columns, one
// high-cardinality column (exercises quantile compression at small
// max_bins), integer class targets.
struct SyntheticRows {
  std::vector<std::string> feature_names;
  std::vector<std::string> class_names;
  std::vector<std::vector<double>> rows;
  std::vector<double> targets;
};

SyntheticRows MakeRows(size_t n, uint64_t seed) {
  SyntheticRows out;
  out.feature_names = {"a", "b", "c", "wide"};
  out.class_names = {"neg", "pos"};
  support::Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> row(4);
    row[0] = static_cast<double>(rng.NextBelow(7));
    row[1] = static_cast<double>(rng.NextBelow(3)) * 0.5;
    row[2] = rng.NextBool(0.3) ? 1.0 : 0.0;
    row[3] = rng.NextDouble() * 100.0;  // Effectively all-distinct.
    const double target = (row[0] + row[2] * 3.0 > 4.0) != rng.NextBool(0.15) ? 1.0 : 0.0;
    out.rows.push_back(std::move(row));
    out.targets.push_back(target);
  }
  return out;
}

// Writes the synthetic rows to a fresh store at `path`.
uint64_t WriteStore(const std::string& path, const SyntheticRows& data,
                    ml::FeatureStoreOptions options) {
  auto writer =
      ml::FeatureStoreWriter::Create(path, data.feature_names, data.class_names, options);
  EXPECT_TRUE(writer.ok()) << writer.error().message();
  for (size_t i = 0; i < data.rows.size(); ++i) {
    writer.value()->Append("row_" + std::to_string(i), data.rows[i], data.targets[i]);
  }
  auto rows = writer.value()->Finish();
  EXPECT_TRUE(rows.ok()) << rows.error().message();
  return rows.ok() ? rows.value() : 0;
}

ml::Dataset MakeDataset(const SyntheticRows& data) {
  ml::Dataset set = ml::Dataset::ForClassification(data.feature_names, data.class_names);
  for (size_t i = 0; i < data.rows.size(); ++i) {
    set.AddRow(data.rows[i], data.targets[i]);
  }
  return set;
}

TEST(FeatureStore, RoundTripsRowsAndSchema) {
  const std::string path = TempPath("roundtrip.clfs");
  const auto data = MakeRows(100, 1);
  ml::FeatureStoreOptions options;
  options.chunk_rows = 32;
  EXPECT_EQ(WriteStore(path, data, options), 100u);

  auto store = ml::FeatureStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.error().message();
  const ml::FeatureStore& s = store.value();
  EXPECT_EQ(s.num_rows(), 100u);
  EXPECT_EQ(s.num_chunks(), 4u);  // 32+32+32+4.
  EXPECT_EQ(s.num_features(), 4u);
  EXPECT_TRUE(s.is_classification());
  EXPECT_EQ(s.feature_names(), data.feature_names);
  EXPECT_EQ(s.class_names(), data.class_names);
  EXPECT_EQ(s.stats().dropped_chunks, 0u);
  EXPECT_FALSE(s.stats().recovered_by_scan);
  EXPECT_TRUE(s.has_codes());

  // Every cell and target survives, both via chunks and via GatherRow.
  size_t global = 0;
  for (size_t c = 0; c < s.num_chunks(); ++c) {
    const auto chunk = s.chunk(c);
    EXPECT_EQ(chunk.row_begin, global);
    for (size_t r = 0; r < chunk.rows; ++r, ++global) {
      EXPECT_EQ(chunk.targets[r], data.targets[global]);
      for (size_t f = 0; f < s.num_features(); ++f) {
        EXPECT_EQ(chunk.Column(f)[r], data.rows[global][f]);
      }
      EXPECT_EQ(s.RowName(global), "row_" + std::to_string(global));
    }
    s.ReleaseChunk(c);
  }
  EXPECT_EQ(global, 100u);
  EXPECT_EQ(s.GatherRow(77), data.rows[77]);
}

TEST(FeatureStore, ToDatasetMatchesInMemoryConstruction) {
  const std::string path = TempPath("todataset.clfs");
  const auto data = MakeRows(64, 2);
  ml::FeatureStoreOptions options;
  options.chunk_rows = 10;
  WriteStore(path, data, options);
  auto store = ml::FeatureStore::Open(path);
  ASSERT_TRUE(store.ok());
  const ml::Dataset from_store = store.value().ToDataset();
  const ml::Dataset direct = MakeDataset(data);
  ASSERT_EQ(from_store.num_rows(), direct.num_rows());
  for (size_t i = 0; i < direct.num_rows(); ++i) {
    EXPECT_EQ(from_store.Target(i), direct.Target(i));
    for (size_t f = 0; f < direct.num_features(); ++f) {
      EXPECT_EQ(from_store.Row(i)[f], direct.Row(i)[f]);
    }
  }
}

// --- String table -----------------------------------------------------------

TEST(FeatureStoreStrings, DeduplicatesRepeatedNames) {
  const std::string path = TempPath("dedup.clfs");
  auto writer = ml::FeatureStoreWriter::Create(path, {"x"}, {"a", "b"});
  ASSERT_TRUE(writer.ok());
  const double x[] = {1.0};
  for (int i = 0; i < 50; ++i) {
    writer.value()->Append(i % 2 == 0 ? "even" : "odd", x, 0.0);
  }
  EXPECT_EQ(writer.value()->string_count(), 2u);
  ASSERT_TRUE(writer.value()->Finish().ok());
  auto store = ml::FeatureStore::Open(path);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value().string_count(), 2u);
  EXPECT_EQ(store.value().RowName(0), "even");
  EXPECT_EQ(store.value().RowName(1), "odd");
  EXPECT_EQ(store.value().RowName(49), "odd");
}

TEST(FeatureStoreStrings, RoundTripsEmptyUtf8AndLongNames) {
  const std::string path = TempPath("names.clfs");
  const std::string empty;
  const std::string utf8 = "caf\xC3\xA9/\xE6\xA0\xB8::\xF0\x9F\x94\x92" "check";
  const std::string long_name(4096, 'n');
  auto writer = ml::FeatureStoreWriter::Create(path, {"x"}, {});
  ASSERT_TRUE(writer.ok());
  const double x[] = {0.5};
  writer.value()->Append(empty, x, 0.0);
  writer.value()->Append(utf8, x, 1.0);
  writer.value()->Append(long_name, x, 2.0);
  ASSERT_TRUE(writer.value()->Finish().ok());
  auto store = ml::FeatureStore::Open(path);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value().RowName(0), empty);
  EXPECT_EQ(store.value().RowName(1), utf8);
  EXPECT_EQ(store.value().RowName(2), long_name);
  EXPECT_EQ(store.value().target_name(), "target");  // Regression default.
  EXPECT_FALSE(store.value().is_classification());
}

// --- Chunk boundaries -------------------------------------------------------

TEST(FeatureStoreChunks, ZeroRowStoreOpensEmpty) {
  const std::string path = TempPath("empty.clfs");
  auto writer = ml::FeatureStoreWriter::Create(path, {"x", "y"}, {"a", "b"});
  ASSERT_TRUE(writer.ok());
  auto rows = writer.value()->Finish();
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value(), 0u);
  auto store = ml::FeatureStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.error().message();
  EXPECT_EQ(store.value().num_rows(), 0u);
  EXPECT_EQ(store.value().num_chunks(), 0u);
  EXPECT_EQ(store.value().num_features(), 2u);
}

TEST(FeatureStoreChunks, ExactlyOneChunkWhenRowsEqualChunkRows) {
  const std::string path = TempPath("onechunk.clfs");
  const auto data = MakeRows(16, 3);
  ml::FeatureStoreOptions options;
  options.chunk_rows = 16;
  WriteStore(path, data, options);
  auto store = ml::FeatureStore::Open(path);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value().num_chunks(), 1u);
  EXPECT_EQ(store.value().chunk(0).rows, 16u);
}

TEST(FeatureStoreChunks, NonMultipleRowCountLeavesShortTailChunk) {
  const std::string path = TempPath("tail.clfs");
  const auto data = MakeRows(21, 4);
  ml::FeatureStoreOptions options;
  options.chunk_rows = 8;
  WriteStore(path, data, options);
  auto store = ml::FeatureStore::Open(path);
  ASSERT_TRUE(store.ok());
  ASSERT_EQ(store.value().num_chunks(), 3u);
  EXPECT_EQ(store.value().chunk(0).rows, 8u);
  EXPECT_EQ(store.value().chunk(1).rows, 8u);
  EXPECT_EQ(store.value().chunk(2).rows, 5u);
  EXPECT_EQ(store.value().num_rows(), 21u);
}

// --- Binning parity ---------------------------------------------------------

TEST(FeatureStoreCodes, CodesAndThresholdsMatchInMemoryBinnedView) {
  const std::string path = TempPath("codes.clfs");
  const auto data = MakeRows(300, 5);
  ml::FeatureStoreOptions options;
  options.chunk_rows = 64;
  options.max_bins = 16;  // Forces quantile compression on the wide column.
  WriteStore(path, data, options);
  auto store = ml::FeatureStore::Open(path);
  ASSERT_TRUE(store.ok());
  const ml::FeatureStore& s = store.value();
  ASSERT_TRUE(s.has_codes());

  const ml::Dataset set = MakeDataset(data);
  const auto view_ptr = set.Binned(16);
  const ml::BinnedView& view = *view_ptr;
  for (size_t f = 0; f < s.num_features(); ++f) {
    const auto& column = view.column(f);
    ASSERT_EQ(s.num_bins(f), column.num_bins) << "feature " << f;
    EXPECT_EQ(s.bin_exact(f), column.exact);
    const auto thresholds = s.thresholds(f);
    ASSERT_EQ(thresholds.size(), column.thresholds.size());
    for (size_t b = 0; b < thresholds.size(); ++b) {
      EXPECT_EQ(thresholds[b], column.thresholds[b]);
    }
    size_t global = 0;
    for (size_t c = 0; c < s.num_chunks(); ++c) {
      const auto chunk = s.chunk(c);
      const auto codes = chunk.Codes(f);
      for (size_t r = 0; r < chunk.rows; ++r, ++global) {
        ASSERT_EQ(codes[r], column.codes[global])
            << "feature " << f << " row " << global;
      }
    }
  }
}

TEST(FeatureStoreCodes, OneBinColumnRoundTripsWithNoThresholds) {
  // A constant column bins to a single bin, so its bin-directory entry
  // carries no thresholds at all.
  const std::string path = TempPath("one_bin.clfs");
  SyntheticRows data = MakeRows(80, 9);
  for (auto& row : data.rows) {
    row[2] = 5.0;
  }
  ml::FeatureStoreOptions options;
  options.chunk_rows = 32;
  WriteStore(path, data, options);
  auto store = ml::FeatureStore::Open(path);
  ASSERT_TRUE(store.ok());
  const ml::FeatureStore& s = store.value();
  ASSERT_TRUE(s.has_codes());
  ASSERT_EQ(s.num_bins(2), 1u);
  EXPECT_TRUE(s.thresholds(2).empty());
  for (size_t c = 0; c < s.num_chunks(); ++c) {
    const auto chunk = s.chunk(c);
    const auto codes = chunk.Codes(2);
    for (size_t r = 0; r < chunk.rows; ++r) {
      EXPECT_EQ(codes[r], 0);
    }
  }
  const auto view = MakeDataset(data).Binned(options.max_bins);
  EXPECT_EQ(view->column(2).num_bins, 1u);
  EXPECT_EQ(s.num_bins(0), view->column(0).num_bins);
}

// --- Corruption tolerance ---------------------------------------------------

// Flips one byte inside the given file offset range.
void FlipByte(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
}

uint64_t FileSize(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  return static_cast<uint64_t>(f.tellg());
}

TEST(FeatureStoreCorruption, BitFlipInChunkDropsOnlyThatChunk) {
  const std::string path = TempPath("flip.clfs");
  const auto data = MakeRows(96, 6);
  ml::FeatureStoreOptions options;
  options.chunk_rows = 32;
  WriteStore(path, data, options);
  {
    auto clean = ml::FeatureStore::Open(path);
    ASSERT_TRUE(clean.ok());
    ASSERT_EQ(clean.value().num_chunks(), 3u);
  }
  // Flip a byte at 45% of the file. Data/codes payloads dominate the layout
  // (96 rows x 4 features x 8 bytes ≈ 3 KiB per chunk, header+schema
  // < 200 B, strings/bins/directory < 10% at the tail), so this lands in
  // exactly one chunk's payload.
  const uint64_t offset = FileSize(path) * 45 / 100;
  FlipByte(path, offset);
  auto store = ml::FeatureStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.error().message();
  EXPECT_EQ(store.value().stats().dropped_chunks, 1u);
  EXPECT_FALSE(store.value().stats().recovered_by_scan);
  EXPECT_EQ(store.value().num_chunks(), 2u);
  EXPECT_EQ(store.value().num_rows(), 64u);
  // Surviving chunks still serve correct bytes. Surviving rows are
  // renumbered densely, so recover each row's original index from its
  // interned name ("row_<original>").
  for (size_t c = 0; c < store.value().num_chunks(); ++c) {
    const auto chunk = store.value().chunk(c);
    for (size_t r = 0; r < chunk.rows; ++r) {
      const std::string& name = store.value().StringAt(chunk.name_ids[r]);
      ASSERT_EQ(name.substr(0, 4), "row_");
      const size_t original = std::stoul(name.substr(4));
      for (size_t f = 0; f < 4; ++f) {
        EXPECT_EQ(chunk.Column(f)[r], data.rows[original][f]);
      }
    }
  }
}

TEST(FeatureStoreCorruption, TruncationRecoversIntactPrefixByScan) {
  const std::string path = TempPath("trunc.clfs");
  const auto data = MakeRows(96, 7);
  ml::FeatureStoreOptions options;
  options.chunk_rows = 32;
  options.write_codes = false;  // Data chunks only: predictable layout.
  WriteStore(path, data, options);
  // Cut the file mid-way: footer, directory, string table, and the tail
  // chunk all vanish. The scan recovers the intact prefix chunks.
  const uint64_t cut = FileSize(path) / 2;
  ASSERT_EQ(truncate(path.c_str(), static_cast<off_t>(cut)), 0);
  auto store = ml::FeatureStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.error().message();
  EXPECT_TRUE(store.value().stats().recovered_by_scan);
  EXPECT_GE(store.value().stats().dropped_chunks, 1u);
  EXPECT_FALSE(store.value().has_codes());
  EXPECT_LT(store.value().num_rows(), 96u);
  EXPECT_GT(store.value().num_rows(), 0u);
  for (size_t c = 0; c < store.value().num_chunks(); ++c) {
    const auto chunk = store.value().chunk(c);
    for (size_t r = 0; r < chunk.rows; ++r) {
      const size_t global = chunk.row_begin + r;
      EXPECT_EQ(chunk.targets[r], data.targets[global]);
      for (size_t f = 0; f < 4; ++f) {
        EXPECT_EQ(chunk.Column(f)[r], data.rows[global][f]);
      }
    }
  }
}

TEST(FeatureStoreCorruption, TornFooterFallsBackToScan) {
  const std::string path = TempPath("torn.clfs");
  const auto data = MakeRows(40, 8);
  ml::FeatureStoreOptions options;
  options.chunk_rows = 16;
  WriteStore(path, data, options);
  // Corrupt the footer magic (last 8 bytes).
  FlipByte(path, FileSize(path) - 4);
  auto store = ml::FeatureStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.error().message();
  EXPECT_TRUE(store.value().stats().recovered_by_scan);
  EXPECT_EQ(store.value().num_rows(), 40u);  // All data chunks intact.
}

TEST(FeatureStoreCorruption, GarbageFileFailsOpenCleanly) {
  const std::string path = TempPath("garbage.clfs");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a feature store at all, not even close.";
  }
  auto store = ml::FeatureStore::Open(path);
  EXPECT_FALSE(store.ok());
  auto missing = ml::FeatureStore::Open(TempPath("does_not_exist.clfs"));
  EXPECT_FALSE(missing.ok());
}

// --- Streamed-vs-in-memory training bit-identity ----------------------------

ml::TreeOptions StableTreeOptions() {
  ml::TreeOptions options;
  options.max_depth = 8;
  options.split_mode = ml::SplitMode::kHistogram;
  options.feature_sample = ml::FeatureSample::kStableByNode;
  options.features_per_split = 2;  // < num_features: exercises sampling.
  options.max_bins = 16;
  return options;
}

TEST(TrainStreaming, SingleTreeBitIdenticalToTrainIndexed) {
  const std::string path = TempPath("train_tree.clfs");
  const auto data = MakeRows(500, 9);
  ml::FeatureStoreOptions options;
  options.chunk_rows = 64;  // Multi-chunk.
  options.max_bins = 16;
  WriteStore(path, data, options);
  auto store = ml::FeatureStore::Open(path);
  ASSERT_TRUE(store.ok());

  const ml::Dataset set = MakeDataset(data);
  std::vector<size_t> all_rows(set.num_rows());
  for (size_t i = 0; i < all_rows.size(); ++i) {
    all_rows[i] = i;
  }
  ml::DecisionTreeClassifier indexed(StableTreeOptions(), /*seed=*/42);
  indexed.TrainIndexed(set, all_rows);
  ml::DecisionTreeClassifier streamed(StableTreeOptions(), /*seed=*/42);
  streamed.TrainStreaming(store.value());

  EXPECT_EQ(streamed.node_count(), indexed.node_count());
  EXPECT_EQ(streamed.depth(), indexed.depth());
  ASSERT_EQ(streamed.StructureDigest(), indexed.StructureDigest());
  for (size_t i = 0; i < data.rows.size(); ++i) {
    EXPECT_EQ(streamed.PredictProba(data.rows[i]), indexed.PredictProba(data.rows[i]));
  }
}

TEST(TrainStreaming, TreeHonorsBootstrapMultiplicities) {
  const std::string path = TempPath("train_bag.clfs");
  const auto data = MakeRows(200, 10);
  ml::FeatureStoreOptions options;
  options.chunk_rows = 50;
  options.max_bins = 16;
  WriteStore(path, data, options);
  auto store = ml::FeatureStore::Open(path);
  ASSERT_TRUE(store.ok());

  // A bootstrap bag as indices (for TrainIndexed) and as multiplicities
  // (for TrainStreaming): same multiset.
  support::Rng rng(77);
  std::vector<size_t> bag;
  std::vector<uint32_t> multiplicity(data.rows.size(), 0);
  for (size_t i = 0; i < data.rows.size(); ++i) {
    const size_t pick = rng.NextBelow(data.rows.size());
    bag.push_back(pick);
    ++multiplicity[pick];
  }
  const ml::Dataset set = MakeDataset(data);
  ml::DecisionTreeClassifier indexed(StableTreeOptions(), /*seed=*/7);
  indexed.TrainIndexed(set, bag);
  ml::DecisionTreeClassifier streamed(StableTreeOptions(), /*seed=*/7);
  streamed.TrainStreaming(store.value(), multiplicity);
  EXPECT_EQ(streamed.StructureDigest(), indexed.StructureDigest());
}

TEST(TrainStreaming, ForestBitIdenticalToTrainIndexedAtAnyThreads) {
  const std::string path = TempPath("train_forest.clfs");
  const auto data = MakeRows(400, 11);
  ml::FeatureStoreOptions options;
  options.chunk_rows = 128;
  WriteStore(path, data, options);
  auto store = ml::FeatureStore::Open(path);
  ASSERT_TRUE(store.ok());

  ml::ForestOptions forest_options;
  forest_options.num_trees = 8;
  forest_options.seed = 123;
  forest_options.tree = StableTreeOptions();
  forest_options.tree.max_bins = ml::BinnedView::kDefaultBins;

  const ml::Dataset set = MakeDataset(data);
  std::vector<size_t> all_rows(set.num_rows());
  for (size_t i = 0; i < all_rows.size(); ++i) {
    all_rows[i] = i;
  }
  ml::RandomForestClassifier indexed(forest_options);
  indexed.TrainIndexed(set, all_rows);
  ml::RandomForestClassifier streamed(forest_options);
  streamed.TrainStreaming(store.value());

  ASSERT_EQ(streamed.StructureDigest(), indexed.StructureDigest());
  for (size_t i = 0; i < data.rows.size(); i += 17) {
    EXPECT_EQ(streamed.PredictProba(data.rows[i]), indexed.PredictProba(data.rows[i]));
  }
  // Importances come from identical trees.
  EXPECT_EQ(streamed.FeatureImportance(), indexed.FeatureImportance());
}

TEST(TrainStreaming, ForestDigestStableAcrossRepeatRuns) {
  // Run under CLAIR_THREADS=4 via the _mt4 ctest re-run: the digest must not
  // depend on worker scheduling.
  const std::string path = TempPath("train_repeat.clfs");
  const auto data = MakeRows(300, 12);
  ml::FeatureStoreOptions options;
  options.chunk_rows = 64;
  WriteStore(path, data, options);
  auto store = ml::FeatureStore::Open(path);
  ASSERT_TRUE(store.ok());
  ml::ForestOptions forest_options;
  forest_options.num_trees = 6;
  forest_options.seed = 5;
  uint64_t first = 0;
  for (int run = 0; run < 3; ++run) {
    ml::RandomForestClassifier forest(forest_options);
    forest.TrainStreaming(store.value());
    if (run == 0) {
      first = forest.StructureDigest();
    } else {
      EXPECT_EQ(forest.StructureDigest(), first);
    }
  }
  EXPECT_NE(first, 0u);
}

// --- Dataset bulk append ----------------------------------------------------

TEST(DatasetAppendRows, EquivalentToRowByRowAddRow) {
  const auto data = MakeRows(60, 13);
  ml::Dataset one_by_one = MakeDataset(data);
  ml::Dataset bulk =
      ml::Dataset::ForClassification(data.feature_names, data.class_names);
  std::vector<double> row_major;
  for (const auto& row : data.rows) {
    row_major.insert(row_major.end(), row.begin(), row.end());
  }
  bulk.AppendRows(row_major, data.targets);
  ASSERT_EQ(bulk.num_rows(), one_by_one.num_rows());
  for (size_t i = 0; i < bulk.num_rows(); ++i) {
    EXPECT_EQ(bulk.Target(i), one_by_one.Target(i));
    for (size_t f = 0; f < bulk.num_features(); ++f) {
      EXPECT_EQ(bulk.Row(i)[f], one_by_one.Row(i)[f]);
    }
  }
}

// --- Ranking evaluator ------------------------------------------------------

TEST(TopKRanking, CountsHitsInScoreOrder) {
  const std::vector<double> scores = {0.9, 0.1, 0.8, 0.7, 0.2, 0.95};
  const std::vector<int> labels = {1, 0, 0, 1, 0, 1};
  const std::vector<size_t> ks = {1, 3, 6, 100};
  const auto metrics = ml::TopKRanking(scores, labels, ks);
  ASSERT_EQ(metrics.size(), 4u);
  // Order: idx5 (1), idx0 (1), idx2 (0), idx3 (1), idx4 (0), idx1 (0).
  EXPECT_EQ(metrics[0].k, 1u);
  EXPECT_EQ(metrics[0].hits, 1u);
  EXPECT_DOUBLE_EQ(metrics[0].precision, 1.0);
  EXPECT_DOUBLE_EQ(metrics[0].recall, 1.0 / 3.0);
  EXPECT_EQ(metrics[1].hits, 2u);
  EXPECT_DOUBLE_EQ(metrics[1].precision, 2.0 / 3.0);
  EXPECT_EQ(metrics[2].hits, 3u);
  EXPECT_DOUBLE_EQ(metrics[2].recall, 1.0);
  EXPECT_EQ(metrics[3].k, 6u);  // Clamped to row count.
}

TEST(TopKRanking, TieBreaksByRowIndexStable) {
  const std::vector<double> scores = {0.5, 0.5, 0.5};
  const std::vector<int> labels = {0, 1, 0};
  const std::vector<size_t> ks = {1, 2};
  const auto metrics = ml::TopKRanking(scores, labels, ks);
  EXPECT_EQ(metrics[0].hits, 0u);  // Row 0 first on ties.
  EXPECT_EQ(metrics[1].hits, 1u);
}

}  // namespace
