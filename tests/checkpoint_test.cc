// Tests for crash-safe checkpoint/resume (docs/ROBUSTNESS.md): the
// isum-ckpt-v1 container format, epoch rotation and fallback, the
// enumeration snapshot, what-if cache export/import, the `after`
// fault-spec field, and the chaos sweep proper — kill enumeration at every
// round boundary and assert the resumed output is bit-identical to an
// uninterrupted one.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/candidate_generation.h"
#include "advisor/enumerator.h"
#include "common/checkpoint.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "common/hash.h"
#include "engine/what_if.h"
#include "tools/tracecat/tracecat.h"
#include "workload/workload_factory.h"

namespace isum {
namespace {

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// A per-test checkpoint base path under the gtest temp dir, with any
/// epoch files a previous run of the same test left behind removed (a
/// stale matching lineage would silently turn a fresh run into a resume).
std::string FreshCkptBase(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "isum_ckpt_test";
  std::filesystem::create_directories(dir);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string file = entry.path().filename().string();
    if (file.rfind(name + ".", 0) == 0) {
      std::filesystem::remove_all(entry.path());
    }
  }
  return (dir / name).string();
}

/// The newest epoch file of lineage `<base><suffix>` (epoch numbers sort
/// lexically within one lineage), or an empty path if none was written.
std::filesystem::path NewestEpoch(const std::string& base,
                                  const std::string& suffix) {
  const std::filesystem::path dir =
      std::filesystem::path(base).parent_path();
  const std::string prefix =
      std::filesystem::path(base).filename().string() + suffix + ".";
  std::filesystem::path newest;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string file = entry.path().filename().string();
    if (file.rfind(prefix, 0) == 0 &&
        (newest.empty() || file > newest.filename().string())) {
      newest = entry.path();
    }
  }
  return newest;
}

// --- Container format ---

TEST(CheckpointFormatTest, RoundTripPreservesEveryBit) {
  CheckpointWriter writer;
  writer.BeginSection(7);
  writer.AppendU64(0);
  writer.AppendU64(~0ull);
  writer.AppendF64(-0.0);
  writer.AppendF64(std::numeric_limits<double>::quiet_NaN());
  writer.AppendF64(5e-324);  // smallest denormal
  writer.AppendString(std::string_view("a\0b", 3));
  writer.AppendU64Vector({1, 2, 3});
  writer.AppendF64Vector({0.1, -1e308});
  writer.EndSection();
  writer.BeginSection(9);
  writer.AppendU64(42);
  writer.EndSection();

  StatusOr<CheckpointReader> reader = CheckpointReader::Parse(writer.Serialize());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_TRUE(reader->HasSection(7));
  EXPECT_TRUE(reader->HasSection(9));
  EXPECT_FALSE(reader->HasSection(8));
  EXPECT_EQ(reader->SectionIds(), (std::vector<uint32_t>{7, 9}));
  EXPECT_EQ(reader->SectionSize(9), 8u);

  StatusOr<CheckpointCursor> cursor = reader->Section(7);
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(cursor->ReadU64().value(), 0u);
  EXPECT_EQ(cursor->ReadU64().value(), ~0ull);
  EXPECT_EQ(Bits(cursor->ReadF64().value()), Bits(-0.0));
  EXPECT_EQ(Bits(cursor->ReadF64().value()),
            Bits(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(Bits(cursor->ReadF64().value()), Bits(5e-324));
  EXPECT_EQ(cursor->ReadString().value(), std::string("a\0b", 3));
  EXPECT_EQ(cursor->ReadU64Vector().value(), (std::vector<uint64_t>{1, 2, 3}));
  const std::vector<double> doubles = cursor->ReadF64Vector().value();
  ASSERT_EQ(doubles.size(), 2u);
  EXPECT_EQ(Bits(doubles[0]), Bits(0.1));
  EXPECT_EQ(Bits(doubles[1]), Bits(-1e308));
  EXPECT_TRUE(cursor->AtEnd());
  // Reading past the end is an error, not UB.
  EXPECT_FALSE(cursor->ReadU64().ok());
}

TEST(CheckpointFormatTest, EveryTruncationIsRejected) {
  CheckpointWriter writer;
  writer.BeginSection(1);
  writer.AppendU64Vector({10, 20, 30});
  writer.EndSection();
  const std::string image = writer.Serialize();
  // A torn tail of any length — including an empty file — must parse to a
  // clean error, never to stale-looking data.
  for (size_t len = 0; len < image.size(); ++len) {
    StatusOr<CheckpointReader> reader =
        CheckpointReader::Parse(image.substr(0, len));
    EXPECT_FALSE(reader.ok()) << "prefix of " << len << " bytes parsed";
  }
}

TEST(CheckpointFormatTest, EverySingleByteFlipIsRejected) {
  CheckpointWriter writer;
  writer.BeginSection(1);
  writer.AppendU64(123);
  writer.AppendF64(4.5);
  writer.EndSection();
  const std::string image = writer.Serialize();
  for (size_t i = 0; i < image.size(); ++i) {
    std::string corrupt = image;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    StatusOr<CheckpointReader> reader = CheckpointReader::Parse(corrupt);
    EXPECT_FALSE(reader.ok()) << "flip at byte " << i << " parsed";
  }
}

TEST(CheckpointFormatTest, TrailingGarbageIsRejected) {
  CheckpointWriter writer;
  writer.BeginSection(1);
  writer.AppendU64(1);
  writer.EndSection();
  StatusOr<CheckpointReader> reader =
      CheckpointReader::Parse(writer.Serialize() + "x");
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kParseError);
}

TEST(CheckpointFormatTest, VersionMismatchIsRejectedEvenWithValidCrc) {
  CheckpointWriter writer;
  writer.BeginSection(1);
  writer.AppendU64(1);
  writer.EndSection();
  std::string image = writer.Serialize();
  // Patch the format version (u32 right after the 12-byte magic) to 2 and
  // re-sign the trailing file CRC so only the version check can reject it.
  image[12] = 2;
  const uint32_t crc = Crc32(image.data() + 12, image.size() - 16);
  std::memcpy(image.data() + image.size() - 4, &crc, sizeof(crc));
  StatusOr<CheckpointReader> reader = CheckpointReader::Parse(std::move(image));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kParseError);
}

// --- Epoch store ---

CheckpointWriter OneValueCheckpoint(uint64_t value) {
  CheckpointWriter writer;
  writer.BeginSection(1);
  writer.AppendU64(value);
  writer.EndSection();
  return writer;
}

uint64_t FirstValue(CheckpointReader& reader) {
  return reader.Section(1).value().ReadU64().value();
}

TEST(CheckpointStoreTest, RotatesEpochsAndKeepsTwoNewest) {
  const std::string base = FreshCkptBase("store_rotate");
  CheckpointStore store(base, 0xabcdu);
  const uint64_t e0 = store.next_epoch();
  ASSERT_TRUE(store.WriteEpoch(OneValueCheckpoint(10)).ok());
  const uint64_t e1 = store.next_epoch();
  ASSERT_TRUE(store.WriteEpoch(OneValueCheckpoint(20)).ok());
  const uint64_t e2 = store.next_epoch();
  ASSERT_TRUE(store.WriteEpoch(OneValueCheckpoint(30)).ok());
  EXPECT_FALSE(std::filesystem::exists(store.EpochPath(e0)));
  EXPECT_TRUE(std::filesystem::exists(store.EpochPath(e1)));
  EXPECT_TRUE(std::filesystem::exists(store.EpochPath(e2)));

  StatusOr<CheckpointReader> latest = store.LoadLatest();
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(FirstValue(*latest), 30u);
  EXPECT_EQ(store.loaded_epoch(), e2);
}

TEST(CheckpointStoreTest, FallsBackPastTornNewestEpoch) {
  const std::string base = FreshCkptBase("store_fallback");
  uint64_t good_epoch = 0;
  uint64_t torn_epoch = 0;
  {
    CheckpointStore store(base, 0xabcdu);
    good_epoch = store.next_epoch();
    ASSERT_TRUE(store.WriteEpoch(OneValueCheckpoint(1)).ok());
    torn_epoch = store.next_epoch();
    ASSERT_TRUE(store.WriteEpoch(OneValueCheckpoint(2)).ok());
    // Tear the newest epoch the way a crash mid-write-then-power-cut
    // would: keep only a prefix of its bytes.
    const std::string torn_path = store.EpochPath(torn_epoch);
    const std::string bytes = ReadFileToString(torn_path).value();
    ASSERT_TRUE(
        WriteFileAtomic(torn_path, std::string_view(bytes).substr(0, 9)).ok());
  }
  CheckpointStore store(base, 0xabcdu);
  StatusOr<CheckpointReader> latest = store.LoadLatest();
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(FirstValue(*latest), 1u);
  EXPECT_EQ(store.loaded_epoch(), good_epoch);
  // The next write does not reuse the torn epoch's number.
  EXPECT_GT(store.next_epoch(), torn_epoch);
}

TEST(CheckpointStoreTest, LineagesAreIsolatedByFingerprint) {
  const std::string base = FreshCkptBase("store_lineage");
  CheckpointStore store(base, 0x1111u);
  ASSERT_TRUE(store.WriteEpoch(OneValueCheckpoint(7)).ok());
  // Same base path, different work-unit fingerprint: nothing to resume.
  CheckpointStore other(base, 0x2222u);
  EXPECT_EQ(other.LoadLatest().status().code(), StatusCode::kNotFound);
}

TEST(CheckpointStoreTest, CreatesMissingParentDirectories) {
  // "--checkpoint=ck/run" on a fresh machine: without the store creating
  // ck/, every best-effort epoch write fails silently and a later "resume"
  // quietly starts from scratch.
  const std::string base =
      FreshCkptBase("store_mkdir") + ".d/nested/deeper/run";
  CheckpointStore store(base, 0xABCDu);
  ASSERT_TRUE(store.WriteEpoch(OneValueCheckpoint(42)).ok());
  CheckpointStore reopened(base, 0xABCDu);
  auto reader = reopened.LoadLatest();
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
}

// --- `after` fault-spec field ---

class FaultAfterTest : public ::testing::Test {
 protected:
  ~FaultAfterTest() override { FaultInjector::Global().Reset(); }
};

TEST_F(FaultAfterTest, RuleStaysDormantForFirstNInvocations) {
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("{\"site\":\"s\",\"kind\":\"error\",\"p\":1.0,"
                             "\"after\":3}")
                  .ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(CheckFault("s").ok()) << "invocation " << i;
  }
  // Fires deterministically at exactly invocation N and stays on.
  EXPECT_FALSE(CheckFault("s").ok());
  EXPECT_FALSE(CheckFault("s").ok());
  // Other sites never consume this rule's invocation stream.
  EXPECT_TRUE(CheckFault("unrelated").ok());
}

TEST_F(FaultAfterTest, DefaultAfterIsZero) {
  ASSERT_TRUE(
      FaultInjector::Global()
          .Configure("{\"site\":\"s\",\"kind\":\"error\",\"p\":1.0}")
          .ok());
  EXPECT_FALSE(CheckFault("s").ok());
}

TEST_F(FaultAfterTest, NegativeAfterIsRejected) {
  const Status status = FaultInjector::Global().Configure(
      "{\"site\":\"s\",\"kind\":\"error\",\"p\":1.0,\"after\":-1}");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(FaultInjector::Armed());
}

// --- What-if cache export/import ---

TEST(WhatIfCacheCheckpointTest, ExportImportServesIdenticalCosts) {
  workload::GeneratorOptions gen;
  gen.instances_per_template = 1;
  std::optional<workload::GeneratedWorkload> env = workload::MakeTpch(gen);
  const size_t n = std::min<size_t>(env->workload->size(), 6);
  ASSERT_GT(n, 0u);

  engine::WhatIfOptimizer source(env->cost_model.get());
  std::vector<const sql::BoundQuery*> queries;
  std::unordered_map<const void*, uint64_t> query_ids;
  std::vector<double> costs;
  for (size_t i = 0; i < n; ++i) {
    const sql::BoundQuery* q = &env->workload->query(i).bound;
    queries.push_back(q);
    query_ids.emplace(q, static_cast<uint64_t>(i));
    costs.push_back(source.Cost(*q, engine::Configuration()));
  }
  std::vector<engine::WhatIfOptimizer::CacheEntry> entries =
      source.ExportCache(query_ids);
  EXPECT_EQ(entries.size(), n);
  // Out-of-range ids in a (hand-damaged) checkpoint are skipped, not UB.
  entries.push_back({/*query_id=*/999, /*config_hash=*/7, /*cost=*/1.0});

  engine::WhatIfOptimizer seeded(env->cost_model.get());
  seeded.ImportCache(entries, queries);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(Bits(seeded.Cost(*queries[i], engine::Configuration())),
              Bits(costs[i]));
  }
  // Every answer came from the imported cache: zero optimizer work.
  EXPECT_EQ(seeded.optimizer_calls(), 0u);
}

// --- Chaos sweep: kill at every round boundary, resume, compare ---

class CheckpointResumeTest : public ::testing::Test {
 protected:
  CheckpointResumeTest() {
    workload::GeneratorOptions gen;
    gen.instances_per_template = 2;
    env_ = workload::MakeTpch(gen);
  }
  ~CheckpointResumeTest() override {
    FaultInjector::Global().Reset();
    InstallAmbientCheckpoint(CheckpointConfig());
  }

  /// Arms a deterministic kill at round `round` of `site`.
  static void KillAtRound(const char* site, size_t round) {
    const std::string spec = std::string("{\"site\":\"") + site +
                             "\",\"kind\":\"error\",\"p\":1.0,\"after\":" +
                             std::to_string(round) + "}";
    ASSERT_TRUE(FaultInjector::Global().Configure(spec).ok());
  }

  /// Every workload query at weight 1, the input the tuner tests share.
  std::vector<advisor::WeightedQuery> UnitQueries() const {
    std::vector<advisor::WeightedQuery> queries;
    for (size_t i = 0; i < env_->workload->size(); ++i) {
      queries.push_back({&env_->workload->query(i).bound, 1.0});
    }
    return queries;
  }

  std::optional<workload::GeneratedWorkload> env_;
};

TEST_F(CheckpointResumeTest, EnumerationResumesBitIdentical) {
  const std::vector<advisor::WeightedQuery> queries = UnitQueries();
  advisor::TuningOptions base;
  base.max_indexes = 5;
  advisor::DtaStyleAdvisor advisor(env_->cost_model.get());
  const advisor::TuningResult full = advisor.Tune(queries, base);
  ASSERT_EQ(full.stop_reason, StopReason::kComplete);
  ASSERT_GE(full.configuration.size(), 2u);
  // Candidate selection is not checkpointed, so every resumed run repeats
  // it; a run killed before the first enumeration round measures its calls.
  KillAtRound("advisor.enumerate", 0);
  const uint64_t selection_calls = advisor.Tune(queries, base).optimizer_calls;
  FaultInjector::Global().Reset();

  for (size_t round = 1; round < full.configuration.size(); ++round) {
    advisor::TuningOptions options = base;
    options.checkpoint.path =
        FreshCkptBase("enum_kill_" + std::to_string(round));
    options.checkpoint.every_rounds = 1;

    KillAtRound("advisor.enumerate", round);
    const advisor::TuningResult killed = advisor.Tune(queries, options);
    EXPECT_EQ(killed.stop_reason, StopReason::kFault) << "round " << round;
    EXPECT_EQ(killed.configuration.size(), round);
    FaultInjector::Global().Reset();

    const advisor::TuningResult resumed = advisor.Tune(queries, options);
    EXPECT_EQ(resumed.stop_reason, StopReason::kComplete) << "round " << round;
    EXPECT_EQ(resumed.configuration.StableHash(),
              full.configuration.StableHash())
        << "round " << round;
    EXPECT_EQ(Bits(resumed.initial_cost), Bits(full.initial_cost));
    EXPECT_EQ(Bits(resumed.final_cost), Bits(full.final_cost))
        << "round " << round;
    EXPECT_EQ(resumed.configurations_explored, full.configurations_explored)
        << "round " << round;
    // Zero repeated enumeration work: the restored memo answers every
    // costing the killed run already made.
    EXPECT_EQ(killed.optimizer_calls + resumed.optimizer_calls,
              full.optimizer_calls + selection_calls)
        << "round " << round;
  }
}

TEST_F(CheckpointResumeTest, CorruptEpochFallsBackAndStillMatches) {
  // Corrupting the newest epoch between kill and resume exercises the
  // fallback path end to end: the previous epoch restores a shorter prefix
  // and the rerun must still converge to the identical result.
  const std::vector<advisor::WeightedQuery> queries = UnitQueries();
  advisor::TuningOptions options;
  options.max_indexes = 5;
  advisor::DtaStyleAdvisor advisor(env_->cost_model.get());
  const advisor::TuningResult full = advisor.Tune(queries, options);
  ASSERT_GT(full.configuration.size(), 3u);

  options.checkpoint.path = FreshCkptBase("corrupt_fallback");
  options.checkpoint.every_rounds = 1;
  KillAtRound("advisor.enumerate", 3);
  (void)advisor.Tune(queries, options);
  FaultInjector::Global().Reset();

  // Flip one byte in the newest .enum epoch file.
  const std::filesystem::path newest =
      NewestEpoch(options.checkpoint.path, ".enum");
  ASSERT_FALSE(newest.empty());
  std::string bytes = ReadFileToString(newest.string()).value();
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  ASSERT_TRUE(WriteFileAtomic(newest.string(), bytes).ok());

  const advisor::TuningResult resumed = advisor.Tune(queries, options);
  EXPECT_EQ(resumed.stop_reason, StopReason::kComplete);
  EXPECT_EQ(resumed.configuration.StableHash(),
            full.configuration.StableHash());
  EXPECT_EQ(Bits(resumed.initial_cost), Bits(full.initial_cost));
  EXPECT_EQ(Bits(resumed.final_cost), Bits(full.final_cost));
  // The previous epoch was restored, not skipped: resuming made fewer
  // optimizer calls than the uninterrupted run.
  EXPECT_LT(resumed.optimizer_calls, full.optimizer_calls);
}

/// Fingerprint an enumeration snapshot had while the what-if memo keyed on
/// the whole configuration: the same fields as today's, under the tag
/// "enum".
uint64_t WholeConfigKeyFingerprint(
    const std::vector<advisor::WeightedQuery>& queries,
    const std::vector<engine::Index>& pool, int max_indexes,
    uint64_t storage_budget_bytes) {
  uint64_t h = HashBytes("enum");
  h = HashCombine(h, queries.size());
  for (const advisor::WeightedQuery& wq : queries) {
    h = HashCombine(h, Bits(wq.weight));
  }
  h = HashCombine(h, pool.size());
  for (const engine::Index& index : pool) {
    h = HashCombine(h, HashBytes(index.CanonicalKey()));
  }
  h = HashCombine(h, static_cast<uint64_t>(max_indexes));
  h = HashCombine(h, storage_budget_bytes);
  return h;
}

/// Re-encodes an enumeration snapshot with its meta fingerprint replaced.
/// Section layout: 1 meta (fingerprint + five u64), 2 winners, 3 costs,
/// 4 cache (count, then query_id/config_hash/cost triples).
CheckpointWriter RetagEnumSnapshot(const CheckpointReader& reader,
                                   uint64_t fingerprint) {
  CheckpointWriter writer;
  CheckpointCursor meta = reader.Section(1).value();
  EXPECT_TRUE(meta.ReadU64().ok());  // the fingerprint being replaced
  writer.BeginSection(1);
  writer.AppendU64(fingerprint);
  for (int i = 0; i < 5; ++i) writer.AppendU64(meta.ReadU64().value());
  writer.EndSection();
  writer.BeginSection(2);
  writer.AppendU64Vector(reader.Section(2)->ReadU64Vector().value());
  writer.EndSection();
  writer.BeginSection(3);
  writer.AppendF64Vector(reader.Section(3)->ReadF64Vector().value());
  writer.EndSection();
  CheckpointCursor cache = reader.Section(4).value();
  const uint64_t count = cache.ReadU64().value();
  writer.BeginSection(4);
  writer.AppendU64(count);
  for (uint64_t i = 0; i < count; ++i) {
    writer.AppendU64(cache.ReadU64().value());
    writer.AppendU64(cache.ReadU64().value());
    writer.AppendF64(cache.ReadF64().value());
  }
  writer.EndSection();
  return writer;
}

TEST_F(CheckpointResumeTest, EnumerationSnapshotUnderWholeConfigKeyIsIgnored) {
  // A snapshot written while the memo keyed on the whole configuration
  // carries cache entries under a different config_hash meaning; it must be
  // treated as foreign, so the run starts fresh.
  std::vector<advisor::WeightedQuery> queries;
  std::vector<engine::Index> pool;
  std::unordered_set<engine::Index> seen;
  for (size_t i = 0; i < env_->workload->size(); ++i) {
    const sql::BoundQuery& q = env_->workload->query(i).bound;
    queries.push_back({&q, 1.0});
    for (engine::Index& index : advisor::GenerateCandidates(q, *env_->stats)) {
      if (seen.insert(index).second) pool.push_back(std::move(index));
    }
  }
  constexpr int kMaxIndexes = 4;
  // Optimizer calls of one enumeration from a cold memo.
  auto enumerate = [&](const std::string& ckpt_path) {
    CheckpointConfig ckpt;
    ckpt.path = ckpt_path;
    ckpt.every_rounds = 1;
    engine::WhatIfOptimizer what_if(env_->cost_model.get());
    const advisor::EnumerationResult result = advisor::GreedyEnumerate(
        what_if, queries, pool, kMaxIndexes, /*storage_budget_bytes=*/0,
        *env_->catalog, {}, /*num_threads=*/1, ckpt);
    return std::make_pair(result, what_if.optimizer_calls());
  };
  const auto [full, full_calls] = enumerate("");
  ASSERT_EQ(full.configuration.size(), static_cast<size_t>(kMaxIndexes));

  const std::string killed_path = FreshCkptBase("enum_old_key_src");
  KillAtRound("advisor.enumerate", 2);
  (void)enumerate(killed_path);
  FaultInjector::Global().Reset();
  const std::filesystem::path newest = NewestEpoch(killed_path, ".enum");
  ASSERT_FALSE(newest.empty());
  const CheckpointReader killed =
      CheckpointReader::Parse(ReadFileToString(newest.string()).value())
          .value();
  const uint64_t current_fingerprint = killed.Section(1)->ReadU64().value();

  // Control: the re-encoded snapshot under today's fingerprint is restored
  // and saves the killed run's optimizer work.
  const std::string control_path = FreshCkptBase("enum_old_key_control");
  CheckpointStore control_store(control_path + ".enum", current_fingerprint);
  ASSERT_TRUE(
      control_store
          .WriteEpoch(RetagEnumSnapshot(killed, current_fingerprint))
          .ok());
  const auto [control, control_calls] = enumerate(control_path);
  EXPECT_EQ(control.configuration.StableHash(),
            full.configuration.StableHash());
  EXPECT_LT(control_calls, full_calls);

  // The same snapshot under the whole-configuration-key fingerprint is not
  // restored: every optimizer call is made again.
  const uint64_t old_fingerprint = WholeConfigKeyFingerprint(
      queries, pool, kMaxIndexes, /*storage_budget_bytes=*/0);
  ASSERT_NE(old_fingerprint, current_fingerprint);
  const std::string old_path = FreshCkptBase("enum_old_key");
  CheckpointStore old_store(old_path + ".enum", old_fingerprint);
  ASSERT_TRUE(
      old_store.WriteEpoch(RetagEnumSnapshot(killed, old_fingerprint)).ok());
  const auto [fresh, fresh_calls] = enumerate(old_path);
  EXPECT_EQ(fresh_calls, full_calls);
  EXPECT_EQ(fresh.configuration.StableHash(), full.configuration.StableHash());
  EXPECT_EQ(Bits(fresh.final_cost), Bits(full.final_cost));
}

// --- tracecat ckpt ---

TEST_F(CheckpointResumeTest, TracecatInspectsWrittenEpochs) {
  advisor::TuningOptions options;
  options.max_indexes = 3;
  options.checkpoint.path = FreshCkptBase("inspect");
  options.checkpoint.every_rounds = 1;
  advisor::DtaStyleAdvisor advisor(env_->cost_model.get());
  const advisor::TuningResult out = advisor.Tune(UnitQueries(), options);
  ASSERT_EQ(out.stop_reason, StopReason::kComplete);

  const std::string epoch_path =
      NewestEpoch(options.checkpoint.path, ".enum").string();
  ASSERT_FALSE(epoch_path.empty());

  StatusOr<std::string> report = tracecat::InspectCheckpoint(epoch_path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("isum-ckpt-v1"), std::string::npos);
  EXPECT_NE(report->find("enumeration snapshot"), std::string::npos);
  EXPECT_NE(report->find("round(s)"), std::string::npos);

  // Verification is the same decode: a damaged file errors instead.
  std::string bytes = ReadFileToString(epoch_path).value();
  bytes[20] = static_cast<char>(bytes[20] ^ 0xff);
  const std::string damaged = epoch_path + ".damaged";
  ASSERT_TRUE(WriteFileAtomic(damaged, bytes).ok());
  EXPECT_FALSE(tracecat::InspectCheckpoint(damaged).ok());
  EXPECT_EQ(tracecat::InspectCheckpoint(damaged + ".missing").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace isum
