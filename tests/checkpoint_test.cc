// Tests for crash-safe checkpoint/resume (docs/ROBUSTNESS.md): the
// isum-ckpt-v1 container format, epoch rotation and fallback, the
// enumeration snapshot and its rejection of hostile payloads, the `after`
// fault-spec field, and the chaos sweep proper — kill enumeration at every
// round boundary and assert the resumed output is bit-identical to an
// uninterrupted one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/candidate_generation.h"
#include "advisor/enumerator.h"
#include "common/checkpoint.h"
#include "common/deadline.h"
#include "common/fault.h"
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

/// The newest epoch file of lineage `<base><suffix>`, or an empty path if
/// none was written. Names differ only in the unpadded epoch number, so a
/// longer name is a later epoch.
std::filesystem::path NewestEpoch(const std::string& base,
                                  const std::string& suffix) {
  const std::filesystem::path dir =
      std::filesystem::path(base).parent_path();
  const std::string prefix =
      std::filesystem::path(base).filename().string() + suffix + ".";
  std::filesystem::path newest;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string file = entry.path().filename().string();
    const std::string best = newest.filename().string();
    if (file.rfind(prefix, 0) == 0 &&
        (newest.empty() || file.size() > best.size() ||
         (file.size() == best.size() && file > best))) {
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
  writer.AppendU64Vector({1, 2, 3});
  writer.AppendF64Vector({-0.0, std::numeric_limits<double>::quiet_NaN(),
                          5e-324 /* smallest denormal */, 0.1, -1e308});
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
  EXPECT_EQ(cursor->ReadU64Vector().value(), (std::vector<uint64_t>{1, 2, 3}));
  const std::vector<double> doubles = cursor->ReadF64Vector().value();
  ASSERT_EQ(doubles.size(), 5u);
  EXPECT_EQ(Bits(doubles[0]), Bits(-0.0));
  EXPECT_EQ(Bits(doubles[1]), Bits(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(Bits(doubles[2]), Bits(5e-324));
  EXPECT_EQ(Bits(doubles[3]), Bits(0.1));
  EXPECT_EQ(Bits(doubles[4]), Bits(-1e308));
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

  /// Checkpoints every following enumeration under `path`, the way
  /// --checkpoint= does; an empty path turns checkpointing off.
  static void CheckpointTo(const std::string& path) {
    CheckpointConfig ckpt;
    ckpt.path = path;
    InstallAmbientCheckpoint(ckpt);
  }

  /// Every workload query at weight 1, the input the tuner tests share.
  std::vector<advisor::WeightedQuery> UnitQueries() const {
    std::vector<advisor::WeightedQuery> queries;
    for (size_t i = 0; i < env_->workload->size(); ++i) {
      queries.push_back({&env_->workload->query(i).bound, 1.0});
    }
    return queries;
  }

  /// Expects `got` to be the output of the uninterrupted run `want`: same
  /// configuration, cost bits, configurations explored and stop reason.
  template <typename Result>
  static void ExpectSameOutput(const Result& got, const Result& want) {
    EXPECT_EQ(got.stop_reason, want.stop_reason);
    EXPECT_EQ(got.configuration.StableHash(), want.configuration.StableHash());
    EXPECT_EQ(Bits(got.initial_cost), Bits(want.initial_cost));
    EXPECT_EQ(Bits(got.final_cost), Bits(want.final_cost));
    EXPECT_EQ(got.configurations_explored, want.configurations_explored);
  }

  std::optional<workload::GeneratedWorkload> env_;
};

TEST_F(CheckpointResumeTest, EnumerationResumesBitIdentical) {
  const std::vector<advisor::WeightedQuery> queries = UnitQueries();
  advisor::DtaStyleAdvisor advisor(env_->cost_model.get());
  for (const int threads : {1, 8}) {
    advisor::TuningOptions options;
    options.max_indexes = 5;
    options.num_threads = threads;
    const advisor::TuningResult full = advisor.Tune(queries, options);
    ASSERT_EQ(full.stop_reason, StopReason::kComplete);
    ASSERT_GE(full.configuration.size(), 2u);

    for (size_t round = 1; round < full.configuration.size(); ++round) {
      SCOPED_TRACE(::testing::Message()
                   << threads << " thread(s), killed at round " << round);
      CheckpointTo(FreshCkptBase("enum_kill_" + std::to_string(threads) +
                                 "_" + std::to_string(round)));
      KillAtRound("advisor.enumerate", round);
      const advisor::TuningResult killed = advisor.Tune(queries, options);
      EXPECT_EQ(killed.stop_reason, StopReason::kFault);
      EXPECT_EQ(killed.configuration.size(), round);
      FaultInjector::Global().Reset();

      const advisor::TuningResult resumed = advisor.Tune(queries, options);
      ExpectSameOutput(resumed, full);
      // The restored rounds are not enumerated again. Snapshots hold no
      // memo, so the rounds after the restore re-cost some configurations
      // the killed run had already costed.
      EXPECT_LT(resumed.optimizer_calls, full.optimizer_calls);
    }
    CheckpointTo("");
  }
}

TEST_F(CheckpointResumeTest, DoneEpochRerunSkipsEnumeration) {
  const std::vector<advisor::WeightedQuery> queries = UnitQueries();
  advisor::TuningOptions options;
  options.max_indexes = 5;
  advisor::DtaStyleAdvisor advisor(env_->cost_model.get());
  // Candidate selection and the initial costing are not checkpointed, so a
  // rerun repeats them; a run killed before the first round measures them.
  KillAtRound("advisor.enumerate", 0);
  const uint64_t setup_calls = advisor.Tune(queries, options).optimizer_calls;
  FaultInjector::Global().Reset();

  CheckpointTo(FreshCkptBase("done_rerun"));
  const advisor::TuningResult full = advisor.Tune(queries, options);
  ASSERT_EQ(full.stop_reason, StopReason::kComplete);
  const advisor::TuningResult rerun = advisor.Tune(queries, options);
  ExpectSameOutput(rerun, full);
  EXPECT_EQ(rerun.optimizer_calls, setup_calls);
}

/// Every epoch file written under `base`, keyed by its name after `base`.
std::map<std::string, std::string> EpochFiles(const std::string& base) {
  const std::filesystem::path dir =
      std::filesystem::path(base).parent_path();
  const std::string prefix =
      std::filesystem::path(base).filename().string() + ".";
  std::map<std::string, std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string file = entry.path().filename().string();
    if (file.rfind(prefix, 0) == 0) {
      out[file.substr(prefix.size())] =
          ReadFileToString(entry.path().string()).value();
    }
  }
  return out;
}

TEST_F(CheckpointResumeTest, EpochFilesAreByteIdenticalAcrossRunsAndThreads) {
  advisor::DtaStyleAdvisor advisor(env_->cost_model.get());
  auto epochs_of = [&](const std::string& name, int threads) {
    const std::string base = FreshCkptBase(name);
    CheckpointTo(base);
    advisor::TuningOptions options;
    options.max_indexes = 5;
    options.num_threads = threads;
    EXPECT_EQ(advisor.Tune(UnitQueries(), options).stop_reason,
              StopReason::kComplete);
    return EpochFiles(base);
  };
  const std::map<std::string, std::string> first = epochs_of("bytes_a", 1);
  ASSERT_FALSE(first.empty());
  EXPECT_TRUE(first == epochs_of("bytes_b", 1)) << "rerun wrote other bytes";
  EXPECT_TRUE(first == epochs_of("bytes_8t", 8))
      << "8 threads wrote other bytes";
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

  const std::string base = FreshCkptBase("corrupt_fallback");
  CheckpointTo(base);
  KillAtRound("advisor.enumerate", 3);
  (void)advisor.Tune(queries, options);
  FaultInjector::Global().Reset();

  // Flip one byte in the newest .enum epoch file.
  const std::filesystem::path newest = NewestEpoch(base, ".enum");
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

/// An enumeration snapshot as its sections hold it: 1 meta (fingerprint,
/// done, stop_reason, configurations_explored, initial_cost bits,
/// total_cost bits), 2 winners, 3 costs.
struct EnumImage {
  std::vector<uint64_t> meta;
  std::vector<uint64_t> winners;
  std::vector<double> costs;
};

EnumImage DecodeEnumImage(const CheckpointReader& reader) {
  EnumImage image;
  CheckpointCursor meta = reader.Section(1).value();
  for (int i = 0; i < 6; ++i) image.meta.push_back(meta.ReadU64().value());
  image.winners = reader.Section(2)->ReadU64Vector().value();
  image.costs = reader.Section(3)->ReadF64Vector().value();
  return image;
}

CheckpointWriter EncodeEnumImage(const EnumImage& image) {
  CheckpointWriter writer;
  writer.BeginSection(1);
  for (const uint64_t value : image.meta) writer.AppendU64(value);
  writer.EndSection();
  writer.BeginSection(2);
  writer.AppendU64Vector(image.winners);
  writer.EndSection();
  writer.BeginSection(3);
  writer.AppendF64Vector(image.costs);
  writer.EndSection();
  return writer;
}

TEST_F(CheckpointResumeTest, RunReachingMaxIndexesWritesOneEpochPerRound) {
  // Rounds 1-4 write done=0 epochs; the fifth round, which ends the loop,
  // is written once, as the done=1 epoch.
  advisor::TuningOptions options;
  options.max_indexes = 5;
  const std::string base = FreshCkptBase("one_per_round");
  CheckpointTo(base);
  advisor::DtaStyleAdvisor advisor(env_->cost_model.get());
  const advisor::TuningResult out = advisor.Tune(UnitQueries(), options);
  ASSERT_EQ(out.stop_reason, StopReason::kComplete);
  ASSERT_EQ(out.configuration.size(), 5u);

  // Epochs are numbered from 0 and the two newest are kept.
  std::vector<std::string> names;
  for (const auto& [name, bytes] : EpochFiles(base)) names.push_back(name);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_NE(names[0].find(".e3.ckpt"), std::string::npos) << names[0];
  EXPECT_NE(names[1].find(".e4.ckpt"), std::string::npos) << names[1];
  const EnumImage newest = DecodeEnumImage(
      CheckpointReader::Parse(
          ReadFileToString(NewestEpoch(base, ".enum").string()).value())
          .value());
  EXPECT_EQ(newest.meta[1], 1u);  // done
  EXPECT_EQ(newest.winners.size(), 5u);
}

TEST_F(CheckpointResumeTest, HostileSnapshotsAreIgnored) {
  // Each case is a well-formed container (every CRC valid) whose payload a
  // resume must not trust: the run starts fresh, makes every optimizer
  // call again and matches an uninterrupted run.
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
  // One enumeration from a cold memo, and its optimizer calls.
  auto enumerate = [&](const std::string& ckpt_path) {
    CheckpointTo(ckpt_path);
    engine::WhatIfOptimizer what_if(env_->cost_model.get());
    const advisor::EnumerationResult result = advisor::GreedyEnumerate(
        what_if, queries, pool, kMaxIndexes, /*storage_budget_bytes=*/0,
        *env_->catalog);
    return std::make_pair(result, what_if.optimizer_calls());
  };
  const auto [full, full_calls] = enumerate("");
  ASSERT_EQ(full.configuration.size(), static_cast<size_t>(kMaxIndexes));

  const std::string killed_path = FreshCkptBase("hostile_src");
  KillAtRound("advisor.enumerate", 2);
  (void)enumerate(killed_path);
  FaultInjector::Global().Reset();
  const std::filesystem::path newest = NewestEpoch(killed_path, ".enum");
  ASSERT_FALSE(newest.empty());
  const EnumImage killed = DecodeEnumImage(
      CheckpointReader::Parse(ReadFileToString(newest.string()).value())
          .value());
  ASSERT_EQ(killed.winners.size(), 2u);

  // Writes `writer` as the only epoch of a fresh lineage and resumes.
  auto resume_from = [&](const std::string& name,
                         const CheckpointWriter& writer) {
    const std::string path = FreshCkptBase(name);
    CheckpointStore store(path + ".enum", killed.meta[0]);
    EXPECT_TRUE(store.WriteEpoch(writer).ok());
    return enumerate(path);
  };

  // Controls: the re-encoded snapshot restores and saves optimizer calls,
  // also with the memo section (id 4) that older builds wrote after it.
  CheckpointWriter with_memo = EncodeEnumImage(killed);
  with_memo.BeginSection(4);
  with_memo.AppendU64(1);  // one (query id, config hash, cost) entry
  with_memo.AppendU64(0);
  with_memo.AppendU64(0);
  with_memo.AppendF64(1.0);
  with_memo.EndSection();
  for (const auto& [name, writer] :
       {std::make_pair("control", EncodeEnumImage(killed)),
        std::make_pair("control_memo", with_memo)}) {
    SCOPED_TRACE(name);
    const auto [resumed, calls] =
        resume_from(std::string("hostile_") + name, writer);
    ExpectSameOutput(resumed, full);
    EXPECT_LT(calls, full_calls);
  }

  const std::vector<std::pair<std::string, std::function<void(EnumImage&)>>>
      cases = {
          {"winner_outside_pool",
           [&](EnumImage& s) { s.winners[1] = pool.size(); }},
          {"repeated_winner",
           [](EnumImage& s) { s.winners[1] = s.winners[0]; }},
          {"more_winners_than_max_indexes",
           [](EnumImage& s) {
             for (uint64_t i = 0;
                  s.winners.size() <= static_cast<size_t>(kMaxIndexes); ++i) {
               if (std::find(s.winners.begin(), s.winners.end(), i) ==
                   s.winners.end()) {
                 s.winners.push_back(i);
               }
             }
           }},
          {"cost_vector_length", [](EnumImage& s) { s.costs.pop_back(); }},
          {"initial_cost_bits", [](EnumImage& s) { s.meta[4] ^= 1; }},
          {"stop_reason_out_of_range",
           [](EnumImage& s) {
             s.meta[2] = static_cast<uint64_t>(StopReason::kFault) + 1;
           }},
      };
  for (const auto& [name, corrupt] : cases) {
    SCOPED_TRACE(name);
    EnumImage image = killed;
    corrupt(image);
    const auto [resumed, calls] =
        resume_from("hostile_" + name, EncodeEnumImage(image));
    ExpectSameOutput(resumed, full);
    EXPECT_EQ(calls, full_calls);
  }
}

// --- tracecat ckpt ---

TEST_F(CheckpointResumeTest, TracecatInspectsWrittenEpochs) {
  advisor::TuningOptions options;
  options.max_indexes = 3;
  const std::string base = FreshCkptBase("inspect");
  CheckpointTo(base);
  advisor::DtaStyleAdvisor advisor(env_->cost_model.get());
  const advisor::TuningResult out = advisor.Tune(UnitQueries(), options);
  ASSERT_EQ(out.stop_reason, StopReason::kComplete);

  const std::string epoch_path = NewestEpoch(base, ".enum").string();
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
