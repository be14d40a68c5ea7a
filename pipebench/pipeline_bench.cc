// Pipeline benchmark: SQL text -> ingest -> compress -> tune -> evaluate.
//
// One process runs one workload (see README.md for why each was chosen).
// It generates the workload, keeps only its SQL text, and then repeatedly
// re-ingests that text and runs ISUM compression, DTA-style tuning and
// full-workload evaluation through the library's public API, checking every
// output. Each layer is timed from outside, around calls into its public
// functions; the library's own tracer and journal stay off except in the
// one leg that measures what they cost.
//
//   pipeline_bench --workload NAME [--seed N] [--workload-seed N]
//                  [--seconds S] [--trace 0|1] [--source-rev REV]
//                  [--out-dir DIR]
//
// --workload-seed (default 42) is the generator's seed; --seed draws the
// order in which the query store hands the SQL text over.
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every check passed, 1 when one failed, 2 on usage
// errors.

#include <malloc.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/candidate_generation.h"
#include "common/rng.h"
#include "core/isum.h"
#include "engine/optimizer.h"
#include "eval/pipeline.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/process_stats.h"
#include "obs/trace.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "workload/workload_factory.h"

namespace {

using namespace isum;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double Mb(uint64_t bytes) { return static_cast<double>(bytes) / (1 << 20); }

// ---------------------------------------------------------------------------
// Workloads. Each stresses a different layer; README.md records why.

struct WorkloadSpec {
  const char* name;
  const char* generator;  // workload::MakeWorkloadByName
  int instances_per_template;
  size_t expected_queries;
  size_t k;
  int max_indexes;
  int threads;
  bool stats_variant;  // ISUM-S instead of default ISUM
};

constexpr WorkloadSpec kWorkloads[] = {
    {"tpcds-100k", "tpcds", 1100, 1100 * 91, 50, 20, 2, false},
    {"tpcds-9k-tune", "tpcds", 100, 100 * 91, 400, 20, 2, false},
    {"realm-stats", "realm", 20, 20 * 456, 200, 50, 1, true},
};

constexpr double kStorageMultiplier = 3.0;  // DTA's default budget
constexpr int kSetupReps = 3;               // setup_s is their median
constexpr int kMinPipelineReps = 3;

core::IsumOptions CompressOptions(const WorkloadSpec& spec) {
  core::IsumOptions options =
      spec.stats_variant ? core::IsumOptions::StatsVariant()
                         : core::IsumOptions();
  options.num_threads = spec.threads;
  return options;
}

advisor::TuningOptions TuneOptions(const WorkloadSpec& spec, int threads) {
  advisor::TuningOptions options;
  options.max_indexes = spec.max_indexes;
  options.storage_budget_multiplier = kStorageMultiplier;
  options.num_threads = threads;
  return options;
}

// ---------------------------------------------------------------------------
// Output checks. A check that fails marks the current operation failed and
// is reported on stderr; any failed operation makes the run incorrect.

class Checker {
 public:
  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    std::fprintf(stderr, "pipeline_bench: check failed: %s\n", what.c_str());
    op_ok_ = false;
  }
  void BeginOp() { op_ok_ = true; }
  void EndOp() {
    ++attempted_;
    if (!op_ok_) ++failed_;
  }
  int attempted() const { return attempted_; }
  int failed() const { return failed_; }

 private:
  bool op_ok_ = true;
  int attempted_ = 0;
  int failed_ = 0;
};

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// ---------------------------------------------------------------------------
// Set-up: generate the workload (catalog, statistics and SQL text), then
// keep the environment and the text and release the generated Workload, as
// if the text had come from a query store. The generator emits queries
// grouped by template; the store hands them over in an arrival order drawn
// from the run's seed.

struct Setup {
  workload::GeneratedWorkload env;  // env.workload is released
  std::vector<std::string> sql;     // in arrival order
  std::vector<size_t> order;        // arrival position -> generated index
  std::vector<double> base_costs;   // by generated index
  size_t templates = 0;
  double total_cost = 0.0;  // C(W) of the generated workload
  std::vector<double> seconds;
};

Setup RunSetup(const WorkloadSpec& spec, uint64_t workload_seed,
               uint64_t order_seed, int reps, Checker& checker) {
  workload::GeneratorOptions gen;
  gen.seed = workload_seed;
  gen.instances_per_template = spec.instances_per_template;
  Setup setup;
  for (int rep = 0; rep < reps; ++rep) {
    checker.BeginOp();
    const Clock::time_point start = Clock::now();
    workload::GeneratedWorkload generated =
        workload::MakeWorkloadByName(spec.generator, gen);
    setup.seconds.push_back(SecondsSince(start));
    const workload::Workload& w = *generated.workload;
    checker.Expect(w.size() == spec.expected_queries,
                   "generated " + std::to_string(w.size()) + " queries, want " +
                       std::to_string(spec.expected_queries));
    if (rep + 1 == reps) {
      setup.templates = w.NumTemplates();
      setup.total_cost = w.TotalCost();
      setup.order.resize(w.size());
      for (size_t i = 0; i < w.size(); ++i) {
        setup.order[i] = i;
        setup.base_costs.push_back(w.query(i).base_cost);
      }
      Rng(order_seed).Shuffle(setup.order);
      setup.sql.reserve(w.size());
      for (const size_t i : setup.order) setup.sql.push_back(w.query(i).sql);
      generated.workload.reset();
      setup.env = std::move(generated);
    }
    checker.EndOp();
  }
  return setup;
}

workload::Workload::Environment EnvOf(const Setup& setup) {
  return {setup.env.catalog.get(), setup.env.stats.get(),
          setup.env.cost_model.get()};
}

// ---------------------------------------------------------------------------
// One pipeline run's outputs.

struct PipelineResult {
  double pipeline_s = 0.0;
  double compress_s = 0.0;
  std::unique_ptr<workload::Workload> workload;
  workload::CompressedWorkload compressed;
  uint64_t selection_hash = 0;
  advisor::TuningResult tuning;
  double improvement_pct = 0.0;
};

uint64_t SelectionHash(const workload::CompressedWorkload& compressed) {
  std::vector<size_t> ids;
  for (const auto& e : compressed.entries) ids.push_back(e.query_index);
  return obs::SelectionOrderHash(ids.data(), ids.size());
}

// Tunes r.compressed and evaluates the recommendation on all of `w`, through
// the library's own tune -> evaluate driver.
void TuneAndEvaluate(const WorkloadSpec& spec, int threads,
                     const workload::Workload& w, PipelineResult& r) {
  eval::EvaluationResult e = eval::RunPipeline(
      w, r.compressed, eval::MakeDtaTuner(w, TuneOptions(spec, threads)),
      "ISUM");
  r.tuning = std::move(e.tuning);
  r.improvement_pct = e.improvement_percent;
}

// The timed path: only public calls, no spans.
PipelineResult RunPipeline(const WorkloadSpec& spec, const Setup& setup,
                           Checker& checker) {
  PipelineResult r;
  const Clock::time_point start = Clock::now();
  r.workload = std::make_unique<workload::Workload>(EnvOf(setup));
  for (const std::string& sql : setup.sql) {
    const Status st = r.workload->AddQuery(sql);
    if (!st.ok()) checker.Expect(false, "re-ingest: " + st.ToString());
  }
  const Clock::time_point compress_start = Clock::now();
  r.compressed =
      core::Isum(r.workload.get(), CompressOptions(spec)).Compress(spec.k);
  r.compress_s = SecondsSince(compress_start);
  TuneAndEvaluate(spec, spec.threads, *r.workload, r);
  r.pipeline_s = SecondsSince(start);
  r.selection_hash = SelectionHash(r.compressed);
  return r;
}

// Every check on one pipeline run's outputs.
void CheckPipeline(const WorkloadSpec& spec, const Setup& setup,
                   const PipelineResult& r, Checker& checker) {
  const workload::Workload& w = *r.workload;
  checker.Expect(w.size() == setup.sql.size(),
                 "re-ingested " + std::to_string(w.size()) + " of " +
                     std::to_string(setup.sql.size()) + " queries");
  if (w.size() == setup.sql.size()) {
    // C(W) summed in generation order, so it must match bit for bit.
    std::vector<double> costs(w.size());
    for (size_t i = 0; i < w.size(); ++i) {
      costs[setup.order[i]] = w.query(i).base_cost;
    }
    double total = 0.0;
    for (const double c : costs) total += c;
    checker.Expect(BitEqual(total, setup.total_cost),
                   "re-ingested C(W) differs from the generated C(W)");
  }
  checker.Expect(r.compressed.size() == spec.k,
                 "selected " + std::to_string(r.compressed.size()) +
                     " queries, want k=" + std::to_string(spec.k));
  checker.Expect(r.compressed.stop_reason == StopReason::kComplete,
                 "compression stopped early");
  double weight_sum = 0.0;
  for (const auto& e : r.compressed.entries) weight_sum += e.weight;
  checker.Expect(std::fabs(weight_sum - 1.0) <= 1e-9,
                 "weights sum to " + std::to_string(weight_sum));
  const advisor::TuningResult& t = r.tuning;
  const catalog::Catalog& catalog = *setup.env.catalog;
  checker.Expect(t.stop_reason == StopReason::kComplete,
                 "tuning stopped early");
  checker.Expect(
      t.configuration.size() <= static_cast<size_t>(spec.max_indexes),
                 "configuration has " + std::to_string(t.configuration.size()) +
                     " indexes, more than m");
  const auto budget = static_cast<uint64_t>(
      kStorageMultiplier * static_cast<double>(catalog.total_data_bytes()));
  checker.Expect(t.configuration.TotalSizeBytes(catalog) <= budget,
                 "configuration exceeds the storage budget");
  checker.Expect(t.final_cost <= t.initial_cost,
                 "tuning raised the compressed workload's cost");
  checker.Expect(t.optimizer_calls > 0, "tuning made no optimizer calls");
  checker.Expect(t.retry_attempts == 0, "what-if calls were retried");
  checker.Expect(r.improvement_pct >= 0.0, "negative improvement");
}

// Outputs that must repeat exactly across reps, legs and thread counts.
void CheckSameOutputs(const PipelineResult& a, const PipelineResult& b,
                      const char* what, Checker& checker) {
  checker.Expect(a.selection_hash == b.selection_hash,
                 std::string(what) + ": selection hash differs");
  checker.Expect(a.tuning.optimizer_calls == b.tuning.optimizer_calls,
                 std::string(what) + ": whatif_calls differ");
  checker.Expect(a.tuning.configuration.StableHash() ==
                     b.tuning.configuration.StableHash(),
                 std::string(what) + ": configuration differs");
  checker.Expect(BitEqual(a.improvement_pct, b.improvement_pct),
                 std::string(what) + ": improvement_pct differs");
}

// ---------------------------------------------------------------------------
// The benchmark's own spans: name, start, end and parent, kept in memory and
// written out when the run ends.

class SpanLog {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
  };

  int32_t Begin(const char* name) {
    spans_.push_back({name, Now(), 0, open_});
    open_ = static_cast<int32_t>(spans_.size() - 1);
    return open_;
  }
  void End(int32_t id) {
    spans_[id].end_ns = Now();
    open_ = spans_[id].parent;
  }
  void Clear() {
    spans_.clear();
    open_ = -1;
  }

  double TotalSeconds(const char* name) const {
    int64_t total = 0;
    for (const Span& s : spans_) {
      if (std::string_view(s.name) == name) total += s.end_ns - s.start_ns;
    }
    return static_cast<double>(total) * 1e-9;
  }

  bool WriteJsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d}\n",
                   i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent);
    }
    return std::fclose(f) == 0;
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  int32_t open_ = -1;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name)
      : log_(log), id_(log.Begin(name)) {}
  ~ScopedSpan() { log_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int32_t id_;
};

// The traced path: the same pipeline with Workload::AddQuery,
// Isum::Compress and the tune -> evaluate driver split into the public calls
// they make, each in a span. `registry_delta` receives the registry activity
// across the pipeline.
PipelineResult RunTracedPipeline(const WorkloadSpec& spec, const Setup& setup,
                                 SpanLog& log,
                                 obs::MetricsSnapshot& registry_delta,
                                 Checker& checker) {
  PipelineResult r;
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan root(log, "pipeline");
    r.workload = std::make_unique<workload::Workload>(EnvOf(setup));
    {
      ScopedSpan ingest(log, "workload/ingest");
      const sql::Binder binder(setup.env.catalog.get(), setup.env.stats.get());
      const engine::Optimizer optimizer(setup.env.cost_model.get());
      for (const std::string& text : setup.sql) {
        StatusOr<sql::SelectStatement> stmt = [&] {
          ScopedSpan span(log, "sql/parse");
          return sql::ParseSelect(text);
        }();
        if (!stmt.ok()) {
          checker.Expect(false, "parse: " + stmt.status().ToString());
          continue;
        }
        StatusOr<sql::BoundQuery> bound = [&] {
          ScopedSpan span(log, "sql/bind");
          return binder.Bind(*stmt, text);
        }();
        if (!bound.ok()) {
          checker.Expect(false, "bind: " + bound.status().ToString());
          continue;
        }
        const double base_cost = [&] {
          ScopedSpan span(log, "engine/base_cost");
          return optimizer.Cost(*bound, engine::Configuration());
        }();
        ScopedSpan span(log, "workload/add");
        r.workload->AddBoundQuery(std::move(*bound), text, base_cost);
      }
    }
    {
      ScopedSpan compress(log, "core/compress");
      const core::IsumOptions options = CompressOptions(spec);
      const core::Isum isum(r.workload.get(), options);
      core::CompressionState state = [&] {
        ScopedSpan span(log, "core/featurize");
        return isum.MakeState();
      }();
      const core::SelectionResult selection = [&] {
        ScopedSpan span(log, "core/select");
        return core::SummaryGreedySelect(state, spec.k, options.update);
      }();
      const std::vector<double> weights = [&] {
        ScopedSpan span(log, "core/weigh");
        return core::WeighSelectedQueries(*r.workload, state, selection,
                                          options.weighing);
      }();
      r.compressed.stop_reason = selection.stop_reason;
      for (size_t i = 0; i < selection.selected.size(); ++i) {
        r.compressed.entries.push_back(
            {selection.selected[i], weights[i],
             selection.selection_benefits[i]});
      }
    }
    {
      ScopedSpan span(log, "advisor/tune");
      std::vector<advisor::WeightedQuery> queries;
      for (const auto& e : r.compressed.entries) {
        queries.push_back({&r.workload->query(e.query_index).bound, e.weight});
      }
      r.tuning = advisor::DtaStyleAdvisor(setup.env.cost_model.get())
                     .Tune(queries, TuneOptions(spec, spec.threads));
    }
    {
      ScopedSpan span(log, "eval/evaluate");
      r.improvement_pct =
          eval::WorkloadImprovementPercent(*r.workload, r.tuning.configuration);
    }
  }
  r.pipeline_s = SecondsSince(start);
  r.compress_s = log.TotalSeconds("core/compress");
  r.selection_hash = SelectionHash(r.compressed);
  registry_delta = obs::MetricsSnapshot::Delta(
      before, obs::MetricsRegistry::Global().Snapshot());
  return r;
}

const obs::HistogramSample* FindHistogram(const obs::MetricsSnapshot& s,
                                          const std::string& name) {
  for (const obs::HistogramSample& h : s.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Result printing.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";  // fails the finiteness check too
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

void PrintResult(const std::vector<Metric>& metrics, const Checker& checker) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %20s %s\n", m.name.c_str(),
                FormatNumber(m.value).c_str(), m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += checker.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checker.attempted());
  json += ", \"failed\": " + std::to_string(checker.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// The two kinds of run.

struct Args {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 42;           // arrival order of the query store
  uint64_t workload_seed = 42;  // GeneratorOptions::seed
  double seconds = 10.0;
  bool trace = false;
  std::string source_rev = "unknown";
  std::string out_dir = ".bench_build/pipebench-out";
};

// End-to-end metrics, tracing off.
std::vector<Metric> TimedRun(const Args& args, Checker& checker) {
  const WorkloadSpec& spec = *args.spec;
  const Setup setup =
      RunSetup(spec, args.workload_seed, args.seed, kSetupReps, checker);

  std::vector<double> pipeline_s;
  std::vector<double> compress_s;
  PipelineResult first;
  const Clock::time_point start = Clock::now();
  for (int rep = 0;
       rep < kMinPipelineReps || SecondsSince(start) < args.seconds; ++rep) {
    checker.BeginOp();
    PipelineResult r = RunPipeline(spec, setup, checker);
    CheckPipeline(spec, setup, r, checker);
    r.workload.reset();  // one ingested copy at a time counts in peak RSS
    pipeline_s.push_back(r.pipeline_s);
    compress_s.push_back(r.compress_s);
    std::fprintf(stderr, "rep %d: pipeline %.3f s, compress %.3f s\n", rep,
                 r.pipeline_s, r.compress_s);
    if (rep == 0) {
      first = std::move(r);
    } else {
      CheckSameOutputs(first, r, "repeated pipeline", checker);
    }
    checker.EndOp();
  }
  return {
      {"setup_s", Median(setup.seconds), "s"},
      {"pipeline_s", Median(pipeline_s), "s"},
      {"compress_s", Median(compress_s), "s"},
      {"whatif_calls", static_cast<double>(first.tuning.optimizer_calls),
       "count"},
      {"improvement_pct", first.improvement_pct, "%"},
      {"peak_rss_mb", Mb(obs::ProcessPeakRssBytes()), "MB"},
  };
}

// Per-layer metrics: traced and untraced pipelines in alternation, plus the
// thread-count oracle leg and the observability-cost leg.
std::vector<Metric> TracedRun(const Args& args, Checker& checker) {
  const WorkloadSpec& spec = *args.spec;
  const Setup setup = RunSetup(spec, args.workload_seed, args.seed, 1, checker);
  std::filesystem::create_directories(args.out_dir);

  SpanLog log;
  obs::MetricsSnapshot registry_delta;  // of the last traced pipeline
  PipelineResult reference;  // first untraced run
  PipelineResult traced;     // last traced run
  std::vector<double> untraced_s, traced_s;
  std::vector<double> parse_s, bind_s, base_cost_s, featurize_s, select_s,
      weigh_s, tune_s, evaluate_s, coverage_pct;

  auto run_pair = [&](int pair) {
    checker.BeginOp();
    PipelineResult plain = RunPipeline(spec, setup, checker);
    CheckPipeline(spec, setup, plain, checker);
    plain.workload.reset();
    untraced_s.push_back(plain.pipeline_s);
    if (pair == 0) {
      reference = std::move(plain);
    } else {
      CheckSameOutputs(reference, plain, "repeated pipeline", checker);
    }
    checker.EndOp();

    checker.BeginOp();
    log.Clear();
    traced = RunTracedPipeline(spec, setup, log, registry_delta, checker);
    CheckPipeline(spec, setup, traced, checker);
    CheckSameOutputs(reference, traced, "traced pipeline", checker);
    for (size_t i = 0; i < traced.compressed.size(); ++i) {
      checker.Expect(
          i < reference.compressed.size() &&
              BitEqual(traced.compressed.entries[i].weight,
                       reference.compressed.entries[i].weight),
          "featurize/select/weigh weights differ from Isum::Compress");
    }
    traced_s.push_back(traced.pipeline_s);
    parse_s.push_back(log.TotalSeconds("sql/parse"));
    bind_s.push_back(log.TotalSeconds("sql/bind"));
    base_cost_s.push_back(log.TotalSeconds("engine/base_cost"));
    featurize_s.push_back(log.TotalSeconds("core/featurize"));
    select_s.push_back(log.TotalSeconds("core/select"));
    weigh_s.push_back(log.TotalSeconds("core/weigh"));
    tune_s.push_back(log.TotalSeconds("advisor/tune"));
    evaluate_s.push_back(log.TotalSeconds("eval/evaluate"));
    const double layers = parse_s.back() + bind_s.back() + base_cost_s.back() +
                          featurize_s.back() + select_s.back() +
                          weigh_s.back() + tune_s.back() + evaluate_s.back();
    coverage_pct.push_back(100.0 * layers / traced.pipeline_s);
    checker.Expect(coverage_pct.back() >= 90.0,
                   "layer spans cover under 90% of the traced pipeline");
    checker.EndOp();
  };

  // Pairs get half the run's time; the legs below take about the rest.
  const Clock::time_point start = Clock::now();
  for (int pair = 0; pair == 0 || SecondsSince(start) < args.seconds / 2;
       ++pair) {
    run_pair(pair);
  }

  // Feature footprint of the traced run's workload, from a separate
  // MakeState outside the pipeline, so that trimming the heap first (to show
  // MakeState's own allocations as RSS growth) costs no timed span.
  uint64_t feature_nnz = 0;
  double featurize_rss_mb = 0.0;
  {
    const core::Isum isum(traced.workload.get(), CompressOptions(spec));
    malloc_trim(0);
    const uint64_t rss_before = obs::ProcessCurrentRssBytes();
    const core::CompressionState state = isum.MakeState();
    featurize_rss_mb = Mb(obs::ProcessCurrentRssBytes()) - Mb(rss_before);
    for (size_t i = 0; i < state.size(); ++i) {
      feature_nnz += state.original_features(i).nnz();
    }
  }

  // Candidate generation over the k selected queries, outside the pipeline
  // span (Tune repeats this work internally).
  double candidate_gen_s = 0.0;
  uint64_t candidates = 0;
  {
    ScopedSpan span(log, "advisor/candidate_gen");
    const Clock::time_point t = Clock::now();
    for (const auto& e : traced.compressed.entries) {
      candidates += advisor::GenerateCandidates(
                        traced.workload->query(e.query_index).bound,
                        *setup.env.stats)
                        .size();
    }
    candidate_gen_s = SecondsSince(t);
  }

  // Thread-count oracle: tuning the traced run's selection serially must
  // reproduce the threaded configuration and call count bit for bit; the
  // serial tune also gives the advisor's self time (tune minus optimizer
  // time). Compression is not repeated: the summary-features algorithm all
  // workloads use ignores num_threads, so a serial re-run could not differ.
  double self_s =
      traced.tuning.elapsed_seconds - traced.tuning.optimizer_seconds;
  if (spec.threads > 1) {
    checker.BeginOp();
    ScopedSpan span(log, "oracle/threads=1");
    PipelineResult serial;
    serial.compressed = traced.compressed;
    serial.selection_hash = traced.selection_hash;
    TuneAndEvaluate(spec, 1, *traced.workload, serial);
    CheckSameOutputs(traced, serial, "threads=1 oracle", checker);
    self_s = serial.tuning.elapsed_seconds - serial.tuning.optimizer_seconds;
    checker.EndOp();
  }

  // Observability cost: one pipeline with the program's tracer and journal
  // on. The journal is written to the output directory; the tracer's spans
  // are drained and counted but not exported, since one per real what-if
  // call runs to millions of records (hundreds of MB as JSON).
  double obs_leg_s = 0.0;
  size_t tracer_spans = 0;
  {
    checker.BeginOp();
    obs::Tracer::Global().Enable();
    checker.Expect(obs::Journal::Global().Open(
                       args.out_dir + "/" + spec.name + ".journal.jsonl",
                       "pipeline_bench"),
                   "cannot open the journal");
    PipelineResult observed = RunPipeline(spec, setup, checker);
    obs::Tracer::Global().Disable();
    obs::Journal::Global().Close();
    obs_leg_s = observed.pipeline_s;
    tracer_spans = obs::Tracer::Global().Drain().spans.size();
    checker.Expect(tracer_spans > 0, "the tracer recorded no spans");
    CheckSameOutputs(reference, observed, "observed pipeline", checker);
    checker.EndOp();
  }

  checker.BeginOp();
  checker.Expect(
      log.WriteJsonl(args.out_dir + "/" + spec.name + ".spans.jsonl"),
      "cannot write the span log");
  checker.EndOp();

  const obs::MetricsSnapshot& d = registry_delta;
  const double hits = static_cast<double>(d.CounterValue("whatif.cache_hits"));
  const double calls =
      static_cast<double>(d.CounterValue("whatif.optimizer_calls"));
  const obs::HistogramSample* optimize =
      FindHistogram(d, "whatif.optimize_nanos");
  const double untraced = Median(untraced_s);
  return {
      {"sql.parse_s", Median(parse_s), "s"},
      {"sql.bind_s", Median(bind_s), "s"},
      {"engine.base_cost_s", Median(base_cost_s), "s"},
      {"workload.queries", static_cast<double>(setup.sql.size()), "count"},
      {"workload.templates", static_cast<double>(setup.templates), "count"},
      {"core.featurize_s", Median(featurize_s), "s"},
      {"core.select_s", Median(select_s), "s"},
      {"core.weigh_s", Median(weigh_s), "s"},
      {"core.feature_nnz", static_cast<double>(feature_nnz), "count"},
      {"core.featurize_rss_mb", featurize_rss_mb, "MB"},
      {"core.selected", static_cast<double>(traced.compressed.size()), "count"},
      {"advisor.tune_s", Median(tune_s), "s"},
      {"advisor.configs_explored",
       static_cast<double>(traced.tuning.configurations_explored), "count"},
      {"advisor.enumeration_rounds",
       static_cast<double>(d.CounterValue("advisor.enumeration_rounds")),
       "count"},
      {"advisor.candidate_gen_s", candidate_gen_s, "s"},
      {"advisor.candidates", static_cast<double>(candidates), "count"},
      {"advisor.self_s", self_s, "s"},
      {"engine.optimizer_s", traced.tuning.optimizer_seconds, "s"},
      {"engine.whatif_hits", hits, "count"},
      {"engine.whatif_hit_ratio",
       hits + calls > 0 ? hits / (hits + calls) : 0.0, "ratio"},
      {"engine.optimize_us_p50", optimize ? optimize->p50 * 1e-3 : 0.0, "us"},
      {"engine.optimize_us_p99", optimize ? optimize->p99 * 1e-3 : 0.0, "us"},
      {"engine.retry_attempts",
       static_cast<double>(d.CounterValue("retry.attempts")), "count"},
      {"common.threadpool_tasks",
       static_cast<double>(d.CounterValue("threadpool.tasks")), "count"},
      {"eval.evaluate_s", Median(evaluate_s), "s"},
      {"obs.layer_coverage_pct", Median(coverage_pct), "%"},
      {"obs.bench_trace_overhead_pct",
       100.0 * (Median(traced_s) - untraced) / untraced, "%"},
      {"obs.tracer_overhead_pct", 100.0 * (obs_leg_s - untraced) / untraced,
       "%"},
      {"obs.tracer_spans", static_cast<double>(tracer_spans), "count"},
  };
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "pipeline_bench: %s\nusage: pipeline_bench --workload NAME "
               "[--seed N] [--workload-seed N] [--seconds S] [--trace 0|1] "
               "[--source-rev REV] "
               "[--out-dir DIR]\nworkloads:",
               message);
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (value == w.name) args.spec = &w;
      }
      if (args.spec == nullptr) {
        return Usage(("unknown workload " + value).c_str());
      }
    } else if (flag == "--seed" || flag == "--workload-seed") {
      uint64_t& seed = flag == "--seed" ? args.seed : args.workload_seed;
      seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage(("bad " + flag).c_str());
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds >= 0.0)) {
        return Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--source-rev") {
      args.source_rev = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.spec == nullptr) return Usage("--workload is required");

  // Host and build stamp: results name the machine and build they came from.
  std::printf(
      "stamp {\"workload\": \"%s\", \"seed\": %llu, \"workload_seed\": %llu, "
      "\"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"compiler\": \"%s\", \"build_type\": "
      "\"%s\", \"source_rev\": \"%s\", \"program_tracing\": \"%s\"}\n",
      args.spec->name, static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(args.workload_seed), args.seconds,
      args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      PIPEBENCH_COMPILER, PIPEBENCH_BUILD_TYPE, args.source_rev.c_str(),
      args.trace ? "off except the obs leg" : "off");

  Checker checker;
  const std::vector<Metric> metrics =
      args.trace ? TracedRun(args, checker) : TimedRun(args, checker);
  checker.BeginOp();
  for (const Metric& m : metrics) {
    checker.Expect(std::isfinite(m.value), m.name + " is not finite");
  }
  checker.EndOp();
  PrintResult(metrics, checker);
  return checker.failed() == 0 ? 0 : 1;
}
