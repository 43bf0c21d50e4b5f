#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>

#include "support/check.h"
#include "support/cli.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/strings.h"
#include "support/table.h"
#include "support/thread_pool.h"

namespace bfdn {
namespace {

TEST(CheckTest, RequireThrowsWithMessage) {
  try {
    BFDN_REQUIRE(1 == 2, "custom context");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("custom context"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

// Check failures name their source relative to src/ (the bare file
// name outside it), never by an absolute build path: the text reaches
// clients as served error bytes and must not differ between builds.
TEST(CheckTest, FailureTextNamesNoAbsolutePath) {
  Rng rng(1);
  try {
    (void)rng.next_below(0);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(" at support/rng.cpp:"), std::string::npos) << what;
    EXPECT_EQ(what.find(" at /"), std::string::npos) << what;
  }
  try {
    BFDN_CHECK(1 + 1 == 3, "a check outside the library");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(" at support_test.cpp:"), std::string::npos) << what;
    EXPECT_EQ(what.find('/'), std::string::npos) << what;
  }
}

TEST(CheckTest, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(BFDN_CHECK(2 + 2 == 4));
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(RngTest, NextBelowOneIsZero) {
  Rng rng(7);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(RngTest, NextBelowZeroThrows) {
  Rng rng(7);
  EXPECT_THROW(rng.next_below(0), CheckError);
}

TEST(RngTest, NextIntCoversFullInclusiveRange) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_int(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextBoolRespectsProbabilityRoughly) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.next_bool(0.25);
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(RngTest, WeightedNeverPicksZeroWeight) {
  Rng rng(5);
  const std::vector<double> w{0.0, 1.0, 0.0, 3.0};
  for (int i = 0; i < 500; ++i) {
    const std::size_t pick = rng.next_weighted(w);
    EXPECT_TRUE(pick == 1 || pick == 3);
  }
}

TEST(RngTest, WeightedNeedsPositiveTotal) {
  Rng rng(5);
  EXPECT_THROW(rng.next_weighted({0.0, 0.0}), CheckError);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, SplitStreamsAreIndependentOfParentOrder) {
  Rng a(77);
  Rng child = a.split();
  const auto first = child();
  Rng b(77);
  Rng child2 = b.split();
  EXPECT_EQ(child2(), first);
}

TEST(StatsTest, RunningStatBasics) {
  RunningStat s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(StatsTest, EmptyStatThrows) {
  RunningStat s;
  EXPECT_THROW(s.mean(), CheckError);
  EXPECT_THROW(s.min(), CheckError);
}

TEST(StatsTest, PercentileEndpointsAndMedian) {
  std::vector<double> v{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
}

TEST(StatsTest, PercentileInterpolates) {
  EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 0.25), 2.5);
}

TEST(StatsTest, HistogramCountsAndMaxKey) {
  Histogram h;
  h.add(3);
  h.add(3);
  h.add(-1, 5);
  EXPECT_EQ(h.at(3), 2u);
  EXPECT_EQ(h.at(-1), 5u);
  EXPECT_EQ(h.at(99), 0u);
  EXPECT_EQ(h.total(), 7u);
  EXPECT_EQ(h.max_key(), 3);
  EXPECT_EQ(h.to_string(), "-1:5 3:2");
}

TEST(StringsTest, FormatJoinSplit) {
  EXPECT_EQ(str_format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("a,", ','), (std::vector<std::string>{"a", ""}));
}

TEST(TableTest, ConsoleAlignsColumns) {
  Table t({"name", "v"});
  t.add_row({"x", "10"});
  t.add_row({"longer", "2"});
  const std::string out = t.to_console();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TableTest, CsvEscapesSpecials) {
  Table t({"a"});
  t.add_row({"x,y"});
  t.add_row({"q\"z"});
  const std::string out = t.to_csv();
  EXPECT_NE(out.find("\"x,y\""), std::string::npos);
  EXPECT_NE(out.find("\"q\"\"z\""), std::string::npos);
}

TEST(TableTest, MarkdownHasSeparatorRow) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_NE(t.to_markdown().find("|---|---|"), std::string::npos);
}

TEST(TableTest, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(CliTest, ParsesAllTypes) {
  CliParser cli("prog", "test");
  cli.add_int("n", 10, "count");
  cli.add_double("x", 0.5, "ratio");
  cli.add_string("name", "d", "label");
  cli.add_bool("flag", false, "toggle");
  const char* argv[] = {"prog", "--n=42", "--x", "1.25", "--name=zoo",
                        "--flag"};
  ASSERT_TRUE(cli.parse(6, argv));
  EXPECT_EQ(cli.get_int("n"), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("x"), 1.25);
  EXPECT_EQ(cli.get_string("name"), "zoo");
  EXPECT_TRUE(cli.get_bool("flag"));
}

TEST(CliTest, DefaultsSurviveEmptyArgv) {
  CliParser cli("prog", "test");
  cli.add_int("n", 10, "count");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("n"), 10);
}

TEST(CliTest, RejectsUnknownFlagAndBadValues) {
  CliParser cli("prog", "test");
  cli.add_int("n", 10, "count");
  const char* unknown[] = {"prog", "--mystery=1"};
  EXPECT_THROW(cli.parse(2, unknown), CheckError);
  const char* bad[] = {"prog", "--n=abc"};
  EXPECT_THROW(cli.parse(2, bad), CheckError);
}

TEST(CliTest, HelpReturnsFalse) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(JsonWriterTest, CompactObjectWithAllValueKinds) {
  JsonWriter w;
  w.begin_object();
  w.kv("name", "a\"b\\c\n");
  w.kv("count", std::int64_t{-3});
  w.kv("big", std::uint64_t{18446744073709551615ULL});
  w.kv("ratio", 0.25, 2);
  w.kv("on", true);
  w.key("none").value_null();
  w.key("items").begin_array();
  w.value(std::int64_t{1});
  w.value("two");
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"a\\\"b\\\\c\\n\",\"count\":-3,"
            "\"big\":18446744073709551615,\"ratio\":0.25,\"on\":true,"
            "\"none\":null,\"items\":[1,\"two\"]}");
}

TEST(JsonWriterTest, RawSplicesVerbatim) {
  JsonWriter w;
  w.begin_object();
  w.key("result").raw("{\"rounds\":7}");
  w.end_object();
  EXPECT_EQ(w.str(), "{\"result\":{\"rounds\":7}}");
}

TEST(JsonWriterTest, PrettyIndentsNestedContainers) {
  JsonWriter w(/*pretty=*/true);
  w.begin_object();
  w.kv("a", std::int64_t{1});
  w.key("b").begin_array();
  w.value(std::int64_t{2});
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

TEST(JsonParseTest, RoundTripsWriterOutput) {
  JsonWriter w;
  w.begin_object();
  w.kv("n", std::int64_t{42});
  w.kv("seed", std::uint64_t{18446744073709551615ULL});
  w.kv("label", "x\ty");
  w.kv("frac", 0.5, 3);
  w.kv("flag", false);
  w.end_object();

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(w.str(), doc, &error)) << error;
  EXPECT_EQ(doc.get_int("n", 0), 42);
  EXPECT_EQ(doc.get_uint("seed", 0), 18446744073709551615ULL);
  EXPECT_EQ(doc.get_string("label", ""), "x\ty");
  EXPECT_DOUBLE_EQ(doc.get_double("frac", 0), 0.5);
  EXPECT_FALSE(doc.get_bool("flag", true));
}

TEST(JsonParseTest, NestedAccessAndDefaults) {
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(
      "{\"outer\": {\"list\": [10, 20, 30], \"null_field\": null}}", doc,
      &error))
      << error;
  const JsonValue& outer = doc.at("outer");
  ASSERT_TRUE(outer.has("list"));
  EXPECT_EQ(outer.at("list").size(), 3u);
  EXPECT_EQ(outer.at("list").at(1).as_int(), 20);
  EXPECT_TRUE(outer.at("null_field").is_null());
  EXPECT_EQ(outer.get_int("absent", -7), -7);
}

TEST(JsonParseTest, UnicodeEscapesDecodeToUtf8) {
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse("{\"s\": \"\\u00e9\\u0041\"}", doc, &error))
      << error;
  EXPECT_EQ(doc.get_string("s", ""), "\xc3\xa9"
                                     "A");
}

TEST(JsonParseTest, RejectsMalformedDocuments) {
  JsonValue doc;
  std::string error;
  EXPECT_FALSE(json_parse("{\"a\": }", doc, &error));
  EXPECT_FALSE(json_parse("{\"a\": 1,}", doc, &error));
  EXPECT_FALSE(json_parse("[1, 2", doc, &error));
  EXPECT_FALSE(json_parse("{\"a\": 1} trailing", doc, &error));
  EXPECT_FALSE(json_parse("", doc, &error));
}

TEST(JsonParseTest, DepthLimitGuardsRecursion) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  for (int i = 0; i < 100; ++i) deep += "]";
  JsonValue doc;
  std::string error;
  EXPECT_FALSE(json_parse(deep, doc, &error));
  EXPECT_NE(error.find("deep"), std::string::npos);
}

TEST(JsonParseTest, WrongTypeAccessorThrows) {
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse("{\"s\": \"text\"}", doc, &error));
  EXPECT_THROW(doc.at("s").as_int(), CheckError);
  EXPECT_THROW(doc.at("missing"), CheckError);
}

TEST(ThreadPoolTest, RunsAllJobs) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { ++counter; });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleRethrowsFirstJobException) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([&ran] {
    ++ran;
    throw std::runtime_error("boom");
  });
  pool.submit([&ran] { ++ran; });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // Every job still ran to completion (the failure did not wedge the
  // pool), and the stored exception was consumed: the pool is reusable
  // and a clean batch waits without throwing.
  EXPECT_EQ(ran.load(), 2);
  pool.submit([&ran] { ++ran; });
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPoolTest, OnlyFirstExceptionIsKept) {
  ThreadPool pool(1);  // serial worker: deterministic "first"
  pool.submit([] { throw std::runtime_error("first"); });
  pool.submit([] { throw std::logic_error("second"); });
  try {
    pool.wait_idle();
    FAIL() << "wait_idle did not rethrow";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "first");
  }
}

}  // namespace
}  // namespace bfdn
