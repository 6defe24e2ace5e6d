// The one JSON grammar (src/obs/json.h): the escape table every writer
// shares, the reader's strictness (reason + byte offset on failure), and
// seeded mutation fuzzing of every parser built on it -- campaign specs,
// metrics snapshots, trace JSONL and crash-forensics rows.  A mutant must
// either be rejected cleanly (false / ConfigError) or be valid JSON that
// re-emits and re-parses to the same value.
#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "common/random.h"
#include "json_validator.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/snapshot_io.h"
#include "service/flat_json.h"
#include "service/spec.h"
#include "service/telemetry_merge.h"

namespace lcosc {
namespace {

namespace fs = std::filesystem;
using obs::json::Reader;
using testutil::JsonValidator;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --- escaper and reader ----------------------------------------------------

TEST(Json, EscapeTableIsTheSpecFileTable) {
  EXPECT_EQ(obs::json::escaped("q\"b\\n\nt\tr\rb\bf\f"), "q\\\"b\\\\n\\nt\\tr\\rb\\bf\\f");
  EXPECT_EQ(obs::json::escaped(std::string("\x01\x1f\x7f", 3)), "\\u0001\\u001f\x7f");
  EXPECT_EQ(obs::json::escaped(std::string("nul\0x", 5)), "nul\\u0000x");
  EXPECT_EQ(obs::json::escaped("caf\xc3\xa9 / plain"), "caf\xc3\xa9 / plain");
  std::string out = "prefix:";
  obs::json::append_escaped(out, "a\"b");
  EXPECT_EQ(out, "prefix:a\\\"b");
}

TEST(Json, ReaderDecodesEveryEscapeToUtf8) {
  Reader in(R"("\" \\ \/ \n \t \r \b \f \u00e9 \u20AC \ud83d\ude00")");
  std::string s;
  ASSERT_TRUE(in.string(s)) << in.error();
  EXPECT_TRUE(in.end());
  EXPECT_EQ(s, "\" \\ / \n \t \r \b \f \xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80");

  // Escaping then reading is the identity on arbitrary bytes.
  std::string all;
  for (int c = 0; c < 256; ++c) all.push_back(static_cast<char>(c));
  const std::string quoted = "\"" + obs::json::escaped(all) + "\"";
  Reader back(quoted);
  ASSERT_TRUE(back.string(s)) << back.error();
  EXPECT_EQ(s, all);
}

TEST(Json, MalformedInputFailsWithReasonAndOffset) {
  struct Case {
    const char* text;
    std::size_t offset;
  };
  const Case cases[] = {
      {R"("abc)", 4},           {"\"tab\there\"", 4},    {R"("\x")", 1},
      {R"("\ud83d")", 7},       {R"("\ude00")", 7},      {R"("\u12g4")", 5},
      {"01", 0},                {"1.", 2},               {".5", 0},
      {"+1", 0},                {"1e", 2},               {"-", 0},
      {"1e400", 0},             {"1e-400", 0},           {"nul", 0},
  };
  for (const Case& c : cases) {
    Reader in(c.text);
    std::string s;
    double d = 0.0;
    const bool ok = c.text[0] == '"' ? in.string(s) : in.number(d);
    EXPECT_FALSE(ok && in.end()) << c.text;
    EXPECT_TRUE(in.failed()) << c.text;
    EXPECT_NE(std::string(in.error()), "") << c.text;
    EXPECT_EQ(in.offset(), c.offset) << c.text << ": " << in.error();
  }

  Reader trailing(R"({"a": 1} x)");
  ASSERT_TRUE(trailing.object([&](const std::string&) {
    double v = 0.0;
    return trailing.number(v);
  }));
  EXPECT_FALSE(trailing.end());
  EXPECT_EQ(trailing.offset(), 9u);
}

TEST(Json, UnsignedIntegersAreExactAndRangeChecked) {
  std::uint64_t u64 = 0;
  EXPECT_TRUE(Reader("18446744073709551615").unsigned_integer(u64));
  EXPECT_EQ(u64, 18446744073709551615ULL);
  EXPECT_TRUE(Reader("9007199254740993").unsigned_integer(u64));
  EXPECT_EQ(u64, 9007199254740993ULL);  // above 2^53: no detour through double
  for (const char* bad : {"18446744073709551616", "-1", "1.0", "1e3", "\"1\""}) {
    EXPECT_FALSE(Reader(bad).unsigned_integer(u64)) << bad;
  }
  std::uint32_t u32 = 0;
  EXPECT_TRUE(Reader("4294967295").unsigned_integer(u32));
  EXPECT_EQ(u32, 4294967295u);
  EXPECT_FALSE(Reader("4294967296").unsigned_integer(u32));
}

TEST(Json, NullReadsAsNaNWhereANumberIsExpected) {
  double d = 0.0;
  EXPECT_TRUE(Reader(" null").number(d));
  EXPECT_TRUE(std::isnan(d));
  EXPECT_TRUE(Reader("-0.5e-3").number(d));
  EXPECT_EQ(d, -0.5e-3);
  std::string_view token;
  EXPECT_FALSE(Reader("null").number_token(token));
  std::uint64_t u = 0;
  EXPECT_FALSE(Reader("null").unsigned_integer(u));
}

TEST(Json, FlatObjectErrorsNameTheContextAndTheByte) {
  try {
    service::parse_flat_object(R"({"a": 1} x)", "campaign spec",
                               [](const std::string&, const std::string&, bool) {});
    FAIL() << "trailing bytes accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("campaign spec: trailing characters"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("(at byte 9)"), std::string::npos) << e.what();
  }
  EXPECT_THROW(service::parse_flat_object(R"({"a": null})", "forensics",
                                          [](const std::string&, const std::string&, bool) {}),
               ConfigError);
  EXPECT_THROW(service::parse_flat_object(R"({"a": {"b": 1}})", "forensics",
                                          [](const std::string&, const std::string&, bool) {}),
               ConfigError);
}

// --- seeded mutation fuzzing -----------------------------------------------

// Byte flip, insert, delete, truncate and range duplication, one to three
// per mutant.  Inserted bytes favour the grammar's own punctuation so
// mutants reach past the first token.
std::string mutate(std::string s, Rng& rng) {
  static constexpr char kDictionary[] = "{}[],:\"\\/-+.eE0123456789tfnu \n\t";
  const auto below = [&rng](std::size_t n) {
    return n == 0 ? std::size_t{0} : static_cast<std::size_t>(rng() % n);
  };
  const int rounds = rng.uniform_int(1, 3);
  for (int r = 0; r < rounds; ++r) {
    const std::size_t pos = below(s.size() + 1);
    const std::size_t len = 1 + below(8);
    switch (rng.uniform_int(0, 4)) {
      case 0:
        if (!s.empty()) s[below(s.size())] ^= static_cast<char>(1u << rng.uniform_int(0, 7));
        break;
      case 1:
        s.insert(pos, 1,
                 rng.uniform_int(0, 1) == 0 ? kDictionary[below(sizeof kDictionary - 1)]
                                            : static_cast<char>(rng() & 0xFF));
        break;
      case 2:
        if (pos < s.size()) s.erase(pos, len);
        break;
      case 3:
        s.resize(below(s.size() + 1));
        break;
      default:
        if (pos < s.size()) s.insert(below(s.size() + 1), s.substr(pos, len));
        break;
    }
  }
  return s;
}

constexpr std::uint64_t kFuzzSeed = 0x150A7E5EEDULL;
constexpr int kMutants = 20000;

// Runs `check` (returns true when the reader accepted the mutant) over
// kMutants mutants of `seed`, and requires both outcomes to occur so the
// campaign demonstrably exercises the accept path as well as rejection.
template <typename Check>
void fuzz(const std::string& seed, std::uint64_t stream, Check&& check) {
  Rng rng = Rng(kFuzzSeed).fork(stream);
  ASSERT_TRUE(check(seed)) << "the unmutated seed must parse";
  int accepted = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string mutant = mutate(seed, rng);
    if (check(mutant)) ++accepted;
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "mutant " << i << ": " << ::testing::PrintToString(mutant);
      return;
    }
  }
  EXPECT_GT(accepted, kMutants / 50);
  EXPECT_LT(accepted, kMutants - kMutants / 50);
}

TEST(JsonFuzz, CampaignSpecMutantsRejectOrRoundTrip) {
  service::CampaignSpec spec;
  spec.seed = 18446744073709551615ULL;
  // Durations whose ms text must read back exactly: an injection instant
  // of the campaign benchmark (6 - 5/128 ms) and its 16 ms case.
  spec.settle_time = (6.0 - 5.0 / 128.0) * 1e-3;
  spec.observe_time = 16e-3 - spec.settle_time;
  spec.run_duration = 10.0390625e-3;
  spec.checkpoint_dir = "/tmp/tab\there\rand\x01" "ctl caf\xc3\xa9";
  spec.report_path = "bell\b_feed\f_line\n\"quoted\"\\";
  fuzz(service::to_json(spec), 1, [](const std::string& text) {
    service::CampaignSpec parsed;
    try {
      parsed = service::parse_campaign_spec(text);
    } catch (const ConfigError&) {
      return false;
    }
    EXPECT_TRUE(JsonValidator(text).valid());
    const service::CampaignSpec again = service::parse_campaign_spec(service::to_json(parsed));
    // Every field comes back exact, the ms durations included.
    for (const auto member : {&service::CampaignSpec::run_duration,
                              &service::CampaignSpec::settle_time,
                              &service::CampaignSpec::observe_time}) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(again.*member),
                std::bit_cast<std::uint64_t>(parsed.*member));
    }
    EXPECT_EQ(service::to_json(again), service::to_json(parsed));
    return true;
  });
}

TEST(JsonFuzz, MetricsSnapshotMutantsRejectOrRoundTrip) {
  obs::MetricsSnapshot seed;
  seed.counters = {{"a.count", 3}, {"caf\xc3\xa9", 18446744073709551615ULL}, {"q\"uote", 0}};
  seed.gauges = {{"pool.busy", 2.0, 5.5}, {"nan", std::nan(""), -1e-300}};
  seed.histograms.resize(2);
  seed.histograms[0] = {"case.wall_ms", {0.5, 1.0, 2.0}, {1, 2, 0, 4}, 7, 0.25, 9.0};
  seed.histograms[1] = {"idle", {1.0}, {0, 0}, 0, 0.0, 0.0};
  fuzz(seed.to_json(), 2, [](const std::string& text) {
    obs::MetricsSnapshot parsed;
    if (!obs::parse_metrics_snapshot(text, parsed)) return false;
    EXPECT_TRUE(JsonValidator(text).valid());
    const std::string emitted = parsed.to_json();
    obs::MetricsSnapshot again;
    EXPECT_TRUE(obs::parse_metrics_snapshot(emitted, again));
    EXPECT_EQ(again.to_json(), emitted);
    return true;
  });
}

TEST(JsonFuzz, TraceJsonlMutantsRejectOrRoundTrip) {
  const std::vector<obs::TraceEventRecord> events = {
      {"case \"7\"\tcaf\xc3\xa9", 'X', 4294967295u, 100.0, 50.0},
      {"solve", 'X', 1, 120.5, 10.25},
      {"trip\\", 'i', 0, 130.0, 0.0},
  };
  fuzz(obs::trace_jsonl(events), 3, [](const std::string& text) {
    std::vector<obs::TraceEventRecord> parsed;
    const bool any = obs::parse_trace_jsonl(text, parsed);
    // Line by line: every line the reader keeps is valid JSON on its own,
    // and the file parse keeps exactly those lines.
    std::vector<obs::TraceEventRecord> by_line;
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
      std::vector<obs::TraceEventRecord> one;
      if (!obs::parse_trace_jsonl(line, one) || one.empty()) continue;
      EXPECT_TRUE(JsonValidator(line).valid()) << line;
      by_line.push_back(one.front());
    }
    EXPECT_EQ(parsed, by_line);
    if (!any || parsed.empty()) return false;

    const std::string emitted = obs::trace_jsonl(parsed);
    std::vector<obs::TraceEventRecord> again;
    EXPECT_TRUE(obs::parse_trace_jsonl(emitted, again));
    EXPECT_EQ(again.size(), parsed.size());
    for (std::size_t i = 0; i < std::min(again.size(), parsed.size()); ++i) {
      EXPECT_EQ(again[i].name, parsed[i].name);
      EXPECT_EQ(again[i].phase, parsed[i].phase);
      EXPECT_EQ(again[i].tid, parsed[i].tid);
    }
    EXPECT_EQ(obs::trace_jsonl(again), emitted);
    return true;
  });
}

TEST(JsonFuzz, ForensicsRowMutantsRejectOrRoundTrip) {
  service::ForensicsRow row;
  row.ts_unix_ms = 1700000000123;
  row.shard = 2;
  row.attempt = 3;
  row.pid = 4242;
  row.event = "crash";
  row.exit_code = 137;
  row.signal = 9;
  row.wall_s = 1.25;
  row.cpu_user_s = 0.5;
  row.max_rss_kb = 51200;
  row.last_checkpoint_index = 17;
  row.checkpoint_records = 18;
  row.stderr_tail = "boom\nline \"two\"\ttab\x01 caf\xc3\xa9";
  const fs::path file =
      fs::temp_directory_path() / ("lcosc_json_fuzz_" + std::to_string(::getpid()) + ".jsonl");
  fs::remove(file);
  ASSERT_TRUE(service::append_forensics_row(file.string(), row));
  std::string seed = read_file(file);
  fs::remove(file);
  ASSERT_FALSE(seed.empty());
  seed.pop_back();  // one row, without its line terminator

  using Member = std::tuple<std::string, std::string, bool>;
  const auto members = [](const std::string& text) {
    std::vector<Member> out;
    service::parse_flat_object(text, "forensics",
                               [&](const std::string& key, const std::string& raw,
                                   bool is_string) { out.emplace_back(key, raw, is_string); });
    return out;
  };
  fuzz(seed, 4, [&](const std::string& text) {
    std::vector<Member> parsed;
    try {
      parsed = members(text);
    } catch (const ConfigError&) {
      return false;
    }
    EXPECT_TRUE(JsonValidator(text).valid());
    // Re-emit as a flat object: escaped strings, raw number/bool tokens.
    std::string emitted = "{";
    for (const auto& [key, raw, is_string] : parsed) {
      if (emitted.size() > 1) emitted += ", ";
      emitted += "\"" + obs::json::escaped(key) + "\": ";
      emitted += is_string ? "\"" + obs::json::escaped(raw) + "\"" : raw;
    }
    emitted += "}";
    EXPECT_TRUE(JsonValidator(emitted).valid()) << emitted;
    EXPECT_EQ(members(emitted), parsed);
    return true;
  });
}

}  // namespace
}  // namespace lcosc
