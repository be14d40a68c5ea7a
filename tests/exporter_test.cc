// Tests for src/obs/exporter.h: the live telemetry exporter (Prometheus
// text in a periodically, atomically replaced snapshot file) and the
// MetricsRegistry snapshot/delta semantics it publishes. Suite
// names start with `Exporter` so the TSan CI job picks the concurrency
// tests up via its --gtest_filter.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "obs/export.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "tools/tracecat/tracecat.h"

namespace isum::obs {
namespace {

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

double SampleValue(const std::vector<tracecat::PromSample>& samples,
                   const char* name, const char* labels = "") {
  for (const auto& s : samples) {
    if (s.name == name && s.labels == labels) return s.value;
  }
  ADD_FAILURE() << "sample not found: " << name << " {" << labels << "}";
  return 0.0;
}

TEST(ExporterSnapshot, WritesFileAndRoundTripsThroughTracecat) {
  MetricsRegistry registry;
  registry.GetCounter("whatif.optimizer_calls")->Add(123);
  registry.GetGauge("pool.size")->Set(4.5);
  registry.GetHistogram("whatif.optimize_nanos")->Observe(1000);

  const std::string path = TempPath("exporter_snapshot.prom");
  MetricsExporterOptions options;
  options.snapshot_path = path;
  options.period_nanos = 3'600'000'000'000ull;  // only the startup tick
  MetricsExporter exporter(&registry, options);
  ASSERT_TRUE(exporter.Start().ok());
  exporter.Stop();
  // Startup tick + shutdown tick; >= 1 because Stop() can beat the worker's
  // first iteration (the shutdown tick alone still yields a complete file).
  EXPECT_GE(exporter.snapshots_written(), 1u);

  auto samples = tracecat::ParsePrometheusText(ReadAll(path));
  ASSERT_TRUE(samples.ok()) << samples.status().ToString();
  EXPECT_EQ(SampleValue(samples.value(), "isum_whatif_optimizer_calls"),
            123.0);
  EXPECT_EQ(SampleValue(samples.value(), "isum_pool_size"), 4.5);
  EXPECT_EQ(
      SampleValue(samples.value(), "isum_whatif_optimize_nanos_count"), 1.0);
  // The exporter publishes the ambient budget every tick (-1 = unlimited).
  EXPECT_EQ(SampleValue(samples.value(), "isum_budget_remaining_seconds"),
            -1.0);
}

TEST(ExporterGolden, PrometheusTextShapeIsStable) {
  // Golden for the exposition format itself (counters and gauges are exact;
  // histogram quantiles go through the round-trip test above instead).
  MetricsRegistry registry;
  registry.GetCounter("compress.runs")->Add(3);
  registry.GetGauge("budget.remaining_seconds")->Set(-1.0);
  EXPECT_EQ(PrometheusText(registry.Snapshot()),
            "# TYPE isum_compress_runs counter\n"
            "isum_compress_runs 3\n"
            "# TYPE isum_budget_remaining_seconds gauge\n"
            "isum_budget_remaining_seconds -1\n");
}

TEST(ExporterSnapshot, ConcurrentReaderSeesOnlyCompleteSnapshots) {
  // 40 counters + 40 histograms (5 samples each) + the 4 gauges every tick
  // publishes: a snapshot of a few KB, rewritten every millisecond while a
  // reader polls it the way `tracecat watch <file>` does. Every read that
  // finds the file must see one whole snapshot.
  MetricsRegistry registry;
  for (int i = 0; i < 40; ++i) {
    registry.GetCounter("concurrent.counter_" + std::to_string(i))->Add(i);
    registry.GetHistogram("concurrent.histogram_" + std::to_string(i))
        ->Observe(1000 + i);
  }
  constexpr size_t kSamples = 40 + 40 * 5 + 4;

  const std::string path = TempPath("exporter_concurrent.prom");
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  MetricsExporterOptions options;
  options.snapshot_path = path;
  options.period_nanos = 1'000'000;  // 1ms
  MetricsExporter exporter(&registry, options);
  ASSERT_TRUE(exporter.Start().ok());

  uint64_t reads = 0;
  uint64_t bad_reads = 0;
  std::string first_bad;
  std::thread reader([&] {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
    while (std::chrono::steady_clock::now() < until) {
      std::ifstream in(path, std::ios::binary);
      if (!in.is_open()) continue;  // before the first snapshot
      std::ostringstream buffer;
      buffer << in.rdbuf();
      ++reads;
      auto samples = tracecat::ParsePrometheusText(buffer.str());
      std::string problem;
      if (!samples.ok()) {
        problem = samples.status().ToString();
      } else if (samples.value().size() != kSamples) {
        problem = std::to_string(samples.value().size()) + " samples";
      }
      if (!problem.empty() && bad_reads++ == 0) first_bad = problem;
    }
  });
  reader.join();
  exporter.Stop();

  EXPECT_GT(reads, 0u);
  EXPECT_EQ(bad_reads, 0u) << "of " << reads << " reads; first: "
                           << first_bad;
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  auto final_samples = tracecat::ParsePrometheusText(ReadAll(path));
  ASSERT_TRUE(final_samples.ok()) << final_samples.status().ToString();
  EXPECT_EQ(final_samples.value().size(), kSamples);
}

TEST(ExporterBudget, ExpiredAmbientBudgetStopsTheWorker) {
  // Once the ambient budget expires, the worker writes one final snapshot
  // (with the gauge at 0) and exits on its own; Stop() then only joins.
  InstallAmbientBudget(TimeBudget::After(0.0));
  MetricsRegistry registry;
  const std::string path = TempPath("exporter_budget.prom");
  MetricsExporterOptions options;
  options.snapshot_path = path;
  options.period_nanos = 1'000'000;  // 1ms: would write thousands if alive
  MetricsExporter exporter(&registry, options);
  ASSERT_TRUE(exporter.Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const uint64_t after_expiry = exporter.snapshots_written();
  EXPECT_LE(after_expiry, 2u);  // the budget-expired tick, not one per ms
  exporter.Stop();
  InstallAmbientBudget(TimeBudget());  // restore unlimited for other tests

  auto samples = tracecat::ParsePrometheusText(ReadAll(path));
  ASSERT_TRUE(samples.ok()) << samples.status().ToString();
  EXPECT_EQ(SampleValue(samples.value(), "isum_budget_remaining_seconds"),
            0.0);
}

TEST(ExporterRegistry, SnapshotAndDeltaUnderConcurrentWriters) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("stress.counter");
  Histogram* histogram = registry.GetHistogram("stress.histogram");
  const MetricsSnapshot before = registry.Snapshot();

  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50'000;
  std::atomic<bool> done{false};
  // Reader thread: snapshots concurrently with the writers; every observed
  // value must be a valid intermediate (never above the final total).
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const MetricsSnapshot s = registry.Snapshot();
      EXPECT_LE(s.CounterValue("stress.counter"), kThreads * kPerThread);
      EXPECT_LE(s.HistogramCount("stress.histogram"),
                kThreads * kPerThread);
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter->Add(1);
        histogram->Observe(100);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();

  const MetricsSnapshot after = registry.Snapshot();
  const MetricsSnapshot delta = MetricsSnapshot::Delta(before, after);
  EXPECT_EQ(delta.CounterValue("stress.counter"), kThreads * kPerThread);
  EXPECT_EQ(delta.HistogramCount("stress.histogram"), kThreads * kPerThread);
}

}  // namespace
}  // namespace isum::obs
