// Tests for src/obs/profiler: the sampling CPU profiler's session
// lifecycle, phase attribution through the tracer's span stack, and the
// collapsed-stack / isum-profile-v1 exporters (driven from synthetic
// ProfileDumps, so golden assertions don't depend on real sampling).
// Allocation-accounting tests are compiled only under ISUM_OBS_PROFILING.
// Suite names start with `Profiler` so the TSan CI job picks the
// signal-heavy tests up via its --gtest_filter.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace isum::obs {
namespace {

/// Consumes CPU until the profiler has captured at least `min_samples` (or
/// the iteration cap is hit — the caller asserts on the count, so a stuck
/// timer fails the test instead of hanging it). ITIMER_PROF ticks on
/// consumed CPU time, so this loop must actually burn cycles.
uint64_t SpinUntilSamples(uint64_t min_samples) {
  volatile uint64_t sink = 0;
  for (int outer = 0; outer < 20000; ++outer) {
    for (uint64_t i = 0; i < 200000; ++i) sink = sink + i * i;
    if (Profiler::Global().samples_captured() >= min_samples) break;
  }
  return sink;
}

TEST(ProfilerSession, StartStopCapturesSamples) {
  ProfilerOptions options;
  options.sample_hz = 1000;  // fast so the test stays short
  ASSERT_TRUE(Profiler::Global().Start(options));
  EXPECT_TRUE(Profiler::Global().running());
  EXPECT_FALSE(Profiler::Global().Start(options));  // double start rejected

  SpinUntilSamples(5);
  const ProfileDump dump = Profiler::Global().Stop();
  EXPECT_FALSE(Profiler::Global().running());
  EXPECT_EQ(dump.sample_hz, 1000);
  EXPECT_GE(dump.samples, 5u);
  EXPECT_FALSE(dump.stacks.empty());
  uint64_t stack_total = 0;
  for (const ProfileStack& stack : dump.stacks) stack_total += stack.count;
  EXPECT_EQ(stack_total, dump.samples);
}

TEST(ProfilerSession, StopWithoutStartReturnsEmptyDump) {
  const ProfileDump dump = Profiler::Global().Stop();
  EXPECT_EQ(dump.samples, 0u);
  EXPECT_TRUE(dump.stacks.empty());
}

TEST(ProfilerSession, TinyBufferCountsDroppedSamples) {
  ProfilerOptions options;
  options.sample_hz = 1000;
  options.max_samples = 16;  // the floor Start() clamps to
  ASSERT_TRUE(Profiler::Global().Start(options));
  SpinUntilSamples(16);
  // Burn a little more CPU so samples arrive after the buffer filled.
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < 40000000; ++i) sink = sink + i;
  const ProfileDump dump = Profiler::Global().Stop();
  EXPECT_LE(dump.samples, 16u);
  if (dump.samples == 16u) {
    EXPECT_GT(dump.dropped, 0u);
  }
}

TEST(ProfilerAttribution, SamplesInsideSpanCarryItsPhase) {
  Tracer::Global().Enable();
  ProfilerOptions options;
  options.sample_hz = 1000;
  ASSERT_TRUE(Profiler::Global().Start(options));
  {
    TraceSpan span("profiler-test/spin");
    SpinUntilSamples(20);
  }
  const ProfileDump dump = Profiler::Global().Stop();
  Tracer::Global().Disable();
  (void)Tracer::Global().Drain();

  ASSERT_GE(dump.samples, 1u);
  uint64_t in_phase = 0;
  for (const ProfileStack& stack : dump.stacks) {
    if (stack.phase == "profiler-test/spin") in_phase += stack.count;
  }
  // Everything this thread did between Start and Stop ran inside the span;
  // allow a stray sample on either side of the span's lifetime.
  EXPECT_GE(in_phase + 2, dump.attributed);
  EXPECT_GE(dump.attributed * 10, dump.samples * 9)
      << "expected >=90% of samples attributed, got " << dump.attributed
      << "/" << dump.samples;
}

TEST(ProfilerPhaseStack, PushPopNestAndOverflowAreSafe) {
  EXPECT_EQ(internal::CurrentPhase(), nullptr);
  internal::PushPhase("outer");
  EXPECT_STREQ(internal::CurrentPhase(), "outer");
  internal::PushPhase("inner");
  EXPECT_STREQ(internal::CurrentPhase(), "inner");
  internal::PopPhase();
  EXPECT_STREQ(internal::CurrentPhase(), "outer");
  // Overflowing the fixed-depth stack keeps the deepest recorded phase and
  // must not write out of bounds.
  for (int i = 0; i < 100; ++i) internal::PushPhase("deep");
  EXPECT_STREQ(internal::CurrentPhase(), "deep");
  for (int i = 0; i < 100; ++i) internal::PopPhase();
  EXPECT_STREQ(internal::CurrentPhase(), "outer");
  internal::PopPhase();
  EXPECT_EQ(internal::CurrentPhase(), nullptr);
  internal::PopPhase();  // pop on empty is a no-op
  EXPECT_EQ(internal::CurrentPhase(), nullptr);
}

/// Synthetic dump shared by the exporter goldens.
ProfileDump SampleDump() {
  ProfileDump dump;
  dump.sample_hz = 100;
  dump.samples = 10;
  dump.dropped = 1;
  dump.attributed = 9;
  dump.stacks.push_back(
      ProfileStack{"compress/greedy-pick", {"main", "Greedy", "Score"}, 6});
  dump.stacks.push_back(
      ProfileStack{"compress/greedy-pick", {"main", "Greedy"}, 2});
  dump.stacks.push_back(
      ProfileStack{"whatif/optimize", {"main", "Optimize"}, 1});
  dump.stacks.push_back(ProfileStack{"", {"main"}, 1});
  dump.alloc_enabled = true;
  dump.alloc_total_bytes = 4096;
  dump.alloc_total_count = 8;
  dump.alloc_live_bytes = -128;
  dump.alloc_peak_bytes = 2048;
  dump.alloc_phases.push_back(
      ProfileAllocPhase{"compress/greedy-pick", 3072, 6});
  dump.alloc_phases.push_back(ProfileAllocPhase{"", 1024, 2});
  return dump;
}

TEST(ProfilerExport, CollapsedStacksMatchFlamegraphFormat) {
  const std::string collapsed = CollapsedStacks(SampleDump());
  EXPECT_EQ(collapsed,
            "compress/greedy-pick;main;Greedy;Score 6\n"
            "compress/greedy-pick;main;Greedy 2\n"
            "whatif/optimize;main;Optimize 1\n"
            "(unattributed);main 1\n");
}

TEST(ProfilerExport, CollapsedStacksSanitizeSeparators) {
  ProfileDump dump;
  dump.samples = 1;
  dump.stacks.push_back(ProfileStack{"phase;x", {"fn;y"}, 1});
  EXPECT_EQ(CollapsedStacks(dump), "phase:x;fn:y 1\n");
}

TEST(ProfilerExport, ProfileJsonCarriesScalarsPhasesFramesAndAllocs) {
  ProfileMeta meta;
  meta.label = "run";
  meta.bench = "bench_fig2_scalability";
  meta.git_rev = "abc1234";
  meta.wall_seconds = 2.5;
  const std::string json = ProfileJson(SampleDump(), meta);

  EXPECT_NE(json.find("\"schema\": \"isum-profile-v1\",\n"),
            std::string::npos);
  EXPECT_NE(json.find("\"sample_hz\": 100,\n"), std::string::npos);
  EXPECT_NE(json.find("\"samples\": 10,\n"), std::string::npos);
  EXPECT_NE(json.find("\"attributed_samples\": 9,\n"), std::string::npos);
  EXPECT_NE(json.find("\"attributed_percent\": 90.00,\n"), std::string::npos);
  EXPECT_NE(json.find("\"alloc_live_bytes\": -128,\n"), std::string::npos);
  // Phases aggregate the two greedy-pick stacks and sort descending.
  EXPECT_NE(json.find("{\"name\": \"compress/greedy-pick\", \"samples\": 8, "
                      "\"percent\": 80.00},"),
            std::string::npos);
  EXPECT_NE(json.find("\"(unattributed)\""), std::string::npos);
  // Frame self/total: Greedy is the leaf of one 2-sample stack but appears
  // in 8 samples total.
  EXPECT_NE(json.find("{\"name\": \"Greedy\", \"self\": 2, \"total\": 8}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"Score\", \"self\": 6, \"total\": 6}"),
            std::string::npos);
  EXPECT_NE(
      json.find("{\"name\": \"compress/greedy-pick\", \"bytes\": 3072, "
                "\"count\": 6},"),
      std::string::npos);
}

TEST(ProfilerExport, ProfileJsonIsLineDisciplined) {
  ProfileMeta meta;
  meta.label = "run";
  const std::string json = ProfileJson(SampleDump(), meta);
  // Every line is a complete scalar, object, bracket, or brace — the same
  // discipline as isum-bench-v1, so tracecat's line parser round-trips it.
  size_t start = 0;
  while (start < json.size()) {
    size_t end = json.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    const std::string line = json.substr(start, end - start);
    EXPECT_FALSE(line.empty());
    start = end + 1;
  }
}

#ifdef ISUM_OBS_PROFILING

TEST(ProfilerAlloc, HooksAreCompiledIn) {
  EXPECT_TRUE(Profiler::alloc_hooks_compiled());
}

TEST(ProfilerAlloc, TracksBytesAndPhases) {
  internal::ArmAllocHooks();
  internal::PushPhase("alloc-test/phase");
  {
    std::vector<char> block(1 << 16);
    block[0] = 1;
  }
  internal::PopPhase();
  const internal::AllocSnapshot snapshot = internal::DisarmAllocHooks();
  EXPECT_GE(snapshot.total_bytes, static_cast<uint64_t>(1 << 16));
  EXPECT_GE(snapshot.total_count, 1u);
  EXPECT_GE(snapshot.peak_bytes, static_cast<uint64_t>(1 << 16));
  bool found_phase = false;
  for (const internal::AllocPhaseTotals& phase : snapshot.phases) {
    if (phase.phase != nullptr &&
        std::string(phase.phase) == "alloc-test/phase") {
      found_phase = true;
      EXPECT_GE(phase.bytes, static_cast<uint64_t>(1 << 16));
    }
  }
  EXPECT_TRUE(found_phase);
}

TEST(ProfilerAlloc, DisarmedHooksStopCounting) {
  internal::ArmAllocHooks();
  (void)internal::DisarmAllocHooks();
  {
    std::vector<char> block(1 << 12);
    block[0] = 1;
  }
  internal::ArmAllocHooks();
  const internal::AllocSnapshot snapshot = internal::DisarmAllocHooks();
  // Only what this re-armed window saw; the disarmed vector is invisible.
  EXPECT_LT(snapshot.total_bytes, static_cast<uint64_t>(1 << 12));
}

#else

TEST(ProfilerAlloc, HooksAreCompiledOut) {
  EXPECT_FALSE(Profiler::alloc_hooks_compiled());
}

#endif  // ISUM_OBS_PROFILING

}  // namespace
}  // namespace isum::obs
