// Tests for src/common/json.h: the grammar of the one JSON reader, and the
// robustness of every format read through it against truncated and
// bit-flipped input.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "catalog/schema_builder.h"
#include "common/fault.h"
#include "common/json.h"
#include "common/string_util.h"
#include "obs/export.h"
#include "obs/journal.h"
#include "stats/stats_loader.h"
#include "tools/tracecat/tracecat.h"
#include "workload/query_store.h"
#include "workload/workload_factory.h"

namespace isum {
namespace {

TEST(Json, ParsesEveryValueTypeKeepingMemberOrder) {
  const auto doc = ParseJson(
      " {\"z\": null, \"t\": true, \"f\": false, \"n\": -1.5e2,\n"
      "  \"s\": \"a\\\"b\\\\c\\/\\n\\r\\t\\u0041\", \"a\": [1, [], {}]} ");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(doc->is_object());
  std::vector<std::string> keys;
  for (const JsonValue::Member& m : doc->members()) keys.push_back(m.key);
  EXPECT_EQ(keys, (std::vector<std::string>{"z", "t", "f", "n", "s", "a"}));
  EXPECT_EQ(doc->Find("z")->type(), JsonValue::Type::kNull);
  EXPECT_EQ(doc->Find("t")->type(), JsonValue::Type::kBool);
  EXPECT_EQ(doc->Number("n").value(), -150.0);
  EXPECT_EQ(doc->String("s").value(), "a\"b\\c/\n\r\tA");
  const JsonValue* a = doc->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array().size(), 3u);
  EXPECT_EQ(a->array()[0].number(), 1.0);
  EXPECT_TRUE(a->array()[1].is_array());
  EXPECT_TRUE(a->array()[2].is_object());
  EXPECT_EQ(doc->Find("missing"), nullptr);
}

TEST(Json, LookupsNameTheKeyAndAreParseErrors) {
  const auto doc = ParseJson("{\"s\": \"x\", \"n\": 1}");
  ASSERT_TRUE(doc.ok());
  for (const Status& status :
       {doc->Number("s").status(), doc->String("n").status(),
        doc->Number("gone").status(), doc->String("gone").status()}) {
    EXPECT_EQ(status.code(), StatusCode::kParseError);
  }
  EXPECT_NE(doc->Number("gone").status().ToString().find("'gone'"),
            std::string::npos);
  // Lookups on a non-object find nothing rather than misreading it.
  const auto array = ParseJson("[\"s\"]");
  ASSERT_TRUE(array.ok());
  EXPECT_EQ(array->Find("s"), nullptr);
}

TEST(Json, RejectsEverythingOutsideTheGrammar) {
  const char* bad[] = {
      "",                       // no value
      "{\"a\":1} x",            // trailing bytes
      "{\"a\":1}{\"a\":1}",     // two documents
      "{\"a\":1,\"a\":2}",      // duplicate key
      "{\"a\":1,}",             // trailing comma
      "[1,]",                   // trailing comma
      "{\"a\" 1}",              // missing colon
      "{a:1}",                  // unquoted key
      "[01]",                   // leading zero
      "[1.]",                   // no fraction digits
      "[.5]",                   // no integer digits
      "[+1]",                   // explicit plus
      "[1e]",                   // no exponent digits
      "[-]",                    // sign only
      "[nan]",                  // not JSON
      "[inf]",                  // not JSON
      "[1e999]",                // overflows a double
      "[tru]",                  // truncated literal
      "[\"a\tb\"]",             // raw control byte
      "[\"\\b\"]",              // escape outside today's set
      "[\"\\f\"]",              // escape outside today's set
      "[\"\\q\"]",              // unknown escape
      "[\"\\u00e9\"]",          // non-ASCII \u
      "[\"\\u12\"]",            // truncated \u
      "[\"\\u12g4\"]",          // non-hex \u
      "[\"abc",                 // unterminated string
      "[\"abc\\",               // dangling escape
      "{\"a\":[1,2}",           // mismatched close
  };
  for (const char* text : bad) {
    const auto parsed = ParseJson(text);
    EXPECT_FALSE(parsed.ok()) << text;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kParseError) << text;
    }
  }
}

TEST(Json, NestingDepthIsBounded) {
  const std::string ok_depth = std::string(kMaxJsonDepth, '[') +
                               std::string(kMaxJsonDepth, ']');
  EXPECT_TRUE(ParseJson(ok_depth).ok());
  const std::string too_deep = std::string(kMaxJsonDepth + 1, '[') +
                               std::string(kMaxJsonDepth + 1, ']');
  EXPECT_FALSE(ParseJson(too_deep).ok());
  // Hostile depth must be an error, not a stack overflow.
  EXPECT_FALSE(ParseJson(std::string(100000, '[')).ok());
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_FALSE(ParseJson(objects).ok());
}

// ---- robustness of every reader built on ParseJson ----

/// Feeds `sample`, every truncation of it, and every single-bit flip of
/// every byte to `read`. Each call must return, OK or not; ASan/UBSan turn
/// any memory error on the way into a failure.
void Mangle(const std::string& sample,
            const std::function<Status(const std::string&)>& read) {
  ASSERT_TRUE(read(sample).ok()) << "sample must parse: " << sample;
  for (size_t len = 0; len < sample.size(); ++len) {
    (void)read(sample.substr(0, len));
  }
  for (size_t i = 0; i < sample.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = sample;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      (void)read(flipped);
    }
  }
}

TEST(JsonRobustness, BenchRecord) {
  Mangle(
      "[\n{\n\"schema\": \"isum-bench-v1\",\n\"label\": \"pre\",\n"
      "\"bench\": \"b\",\n\"git_rev\": \"abc\",\n\"wall_seconds\": 1.5,\n"
      "\"peak_rss_bytes\": 4096,\n\"phases\": [\n{\"name\": \"p\", "
      "\"count\": 2, \"total_us\": 3.5, \"max_us\": 2.0}\n],\n"
      "\"counters\": [\n{\"name\": \"c\", \"value\": 7}\n],\n"
      "\"runs\": [\n{\"name\": \"r\", \"seconds\": 1.25, \"hash\": \"ab\"}\n"
      "]\n}\n]\n",
      [](const std::string& text) {
        return tracecat::ParseBenchJson(text).status();
      });
}

TEST(JsonRobustness, ProfileRecord) {
  obs::ProfileDump dump;
  dump.sample_hz = 100;
  dump.samples = 3;
  dump.attributed = 2;
  dump.alloc_enabled = true;
  dump.stacks.push_back(obs::ProfileStack{"compress", {"main", "Pick"}, 2});
  dump.stacks.push_back(obs::ProfileStack{"", {"main"}, 1});
  dump.alloc_phases.push_back(obs::ProfileAllocPhase{"compress", 64, 2});
  obs::ProfileMeta meta;
  meta.label = "l";
  Mangle(obs::ProfileJson(dump, meta), [](const std::string& text) {
    return tracecat::ParseProfileJson(text).status();
  });
}

TEST(JsonRobustness, Journal) {
  const size_t order[] = {7};
  const std::string hash = StrFormat(
      "%016llx",
      static_cast<unsigned long long>(obs::SelectionOrderHash(order, 1)));
  Mangle(
      "{\"event\":\"journal_begin\",\"seq\":0,\"t_us\":0.000,"
      "\"schema\":\"isum-events-v1\",\"label\":\"u\"}\n"
      "{\"event\":\"compress_begin\",\"seq\":1,\"t_us\":0.500,\"n\":3,"
      "\"k\":1,\"algorithm\":\"isum\",\"threads\":1}\n"
      "{\"event\":\"select\",\"seq\":2,\"t_us\":1.000,\"round\":0,"
      "\"query\":7,\"benefit\":0.5,\"gap\":-1,\"shard\":0,\"eligible\":3}\n"
      "{\"event\":\"compress_end\",\"seq\":3,\"t_us\":2.000,"
      "\"selected\":1,\"selection_hash\":\"" +
          hash + "\",\"benefit_sum\":0.5,\"stop_reason\":\"complete\"}\n",
      [](const std::string& text) -> Status {
        ISUM_ASSIGN_OR_RETURN(const auto events, tracecat::ParseJournal(text));
        // Both run on every parsed journal, whatever the check says.
        const Status checked = tracecat::CheckJournal(events).status();
        const Status explained = tracecat::ExplainJournal(events, 5).status();
        return checked.ok() ? explained : checked;
      });
}

TEST(JsonRobustness, MetricsLine) {
  obs::MetricsSnapshot snapshot;
  snapshot.counters.emplace_back("whatif.cache_hits", 12);
  obs::HistogramSample histogram;
  histogram.name = "whatif.optimize_nanos";
  histogram.count = 2;
  histogram.sum = 30;
  histogram.p50 = 10;
  histogram.p95 = 20;
  histogram.p99 = 20;
  snapshot.histograms.push_back(histogram);
  Mangle(obs::MetricsJsonl(snapshot), [](const std::string& text) {
    return tracecat::ParseMetricsJsonl(text).status();
  });
}

TEST(JsonRobustness, ChromeTrace) {
  obs::TraceDump dump;
  dump.thread_names = {"main"};
  dump.spans.push_back(obs::SpanRecord{"compress/total", 0, 0, 1000, 9000});
  Mangle(obs::ChromeTraceJson(dump), [](const std::string& text) {
    return tracecat::ParseChromeTrace(text).status();
  });
}

TEST(JsonRobustness, StatsLine) {
  catalog::Catalog catalog;
  catalog::SchemaBuilder(&catalog)
      .Table("t", 100)
      .Col("c", catalog::ColumnType::kInt);
  Mangle(
      "{\"table\": \"t\", \"column\": \"c\", \"distinct\": 4, \"min\": 0, "
      "\"max\": 9, \"distribution\": \"zipf\", \"skew\": 1.5, "
      "\"nulls\": 0.1}\n",
      [&](const std::string& text) {
        stats::StatsManager stats(&catalog);
        return stats::LoadColumnStats(text, catalog, &stats).status();
      });
}

TEST(JsonRobustness, QueryStoreLine) {
  workload::GeneratorOptions gen;
  gen.instances_per_template = 1;
  gen.max_templates = 1;
  const workload::GeneratedWorkload env = workload::MakeTpch(gen);
  Mangle(
      "{\"sql\": \"SELECT * FROM lineitem\", \"cost\": 2.5, \"tag\": \"q\"}\n",
      [&](const std::string& text) {
        workload::Workload w(env.workload->env());
        return workload::LoadQueryStore(text, &w).status();
      });
}

TEST(JsonRobustness, FaultSpec) {
  Mangle(
      "{\"seed\":7};{\"site\":\"whatif.cost\",\"kind\":\"latency\","
      "\"p\":0.5,\"ms\":0.1,\"after\":2}",
      [](const std::string& text) {
        return FaultInjector::Global().Configure(text);
      });
  FaultInjector::Global().Reset();
}

}  // namespace
}  // namespace isum
