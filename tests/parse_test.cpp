// The shared strict parser (util/parse.hpp): the number rule, the line
// tokenizer and the flag matcher, plus a seeded mutation fuzz of the two
// line formats built on it (fault plans and workload specs).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <system_error>

#include "fault/plan.hpp"
#include "sched/workload.hpp"
#include "sim/random.hpp"
#include "util/parse.hpp"

namespace {

using namespace epi;

TEST(ParseNumber, WholeTokenUnsignedDecimalInRange) {
  std::uint32_t v = 7;
  EXPECT_EQ(util::parse_number("4294967295", v), std::errc{});
  EXPECT_EQ(v, 4294967295u);
  for (const char* bad : {"", "12abc", "0x10", "-5", "+5", " 5", "5 ", "1.5"}) {
    v = 7;
    EXPECT_EQ(util::parse_number(bad, v), std::errc::invalid_argument) << bad;
    EXPECT_EQ(v, 7u) << bad;  // untouched on failure
  }
  EXPECT_EQ(util::parse_number("4294967296", v), std::errc::result_out_of_range);
  std::uint64_t w = 0;
  EXPECT_EQ(util::parse_number("4294967296", w), std::errc{});
  EXPECT_EQ(util::parse_number("ff", v, 16), std::errc{});
  EXPECT_EQ(v, 0xFFu);

  double d = 0;
  EXPECT_EQ(util::parse_number("0.25", d), std::errc{});
  EXPECT_EQ(d, 0.25);
  for (const char* bad : {"-0.5", "-0", "nan", "inf", "0.5x", ""}) {
    EXPECT_NE(util::parse_number(bad, d), std::errc{}) << bad;
  }
}

TEST(ParsePair, BothHalvesMustParse) {
  unsigned a = 0, b = 0;
  EXPECT_TRUE(util::parse_pair("2x3", 'x', a, b));
  EXPECT_EQ(a, 2u);
  EXPECT_EQ(b, 3u);
  for (const char* bad : {"2x3x", "x3", "2x", "2", "4294967296x1", "2,3"}) {
    EXPECT_FALSE(util::parse_pair(bad, 'x', a, b)) << bad;
    EXPECT_EQ(a, 2u) << bad;
  }
}

TEST(ParseLine, DirectiveFieldsAndComments) {
  const util::Line line("f", 3, "  kill core=1,2 at=5 # trailing comment x=1");
  EXPECT_EQ(line.directive(), "kill");
  EXPECT_EQ(line.find("core"), "1,2");
  EXPECT_FALSE(line.find("x"));
  unsigned at = 0;
  EXPECT_TRUE(line.number("at", at));
  EXPECT_EQ(at, 5u);
  EXPECT_FALSE(line.number("for", at));
  EXPECT_NO_THROW(line.fields("at", "core for"));
  EXPECT_TRUE(util::Line("f", 1, "   # only a comment").empty());
  EXPECT_TRUE(util::Line("f", 1, " \t\r").empty());
  EXPECT_EQ(util::Line("f", 1, "seed 7").value(), "7");

  const auto error_of = [](auto&& f) -> std::string {
    try {
      f();
    } catch (const util::ParseError& e) {
      return e.what();
    }
    return {};
  };
  EXPECT_EQ(error_of([] { util::Line("f", 4, "job a=1 a=2"); }),
            "f:4: duplicate field 'a'");
  EXPECT_EQ(error_of([] { (void)util::Line("f", 2, "seed 7 8").value(); }),
            "f:2: 'seed' takes exactly one value");
  EXPECT_EQ(error_of([] { util::Line("f", 1, "kill bare").fields({}, "bare"); }),
            "f:1: field 'bare' is not key=value");
  EXPECT_EQ(error_of([] { util::Line("f", 1, "kill at=1 x=2").fields("at", "y"); }),
            "f:1: unknown field 'x' for 'kill'");
  EXPECT_EQ(error_of([] { util::Line("f", 1, "kill x=2").fields("at", "x"); }),
            "f:1: 'kill' needs at=");
  EXPECT_EQ(error_of([] {
              std::uint8_t v = 0;
              util::Line("f", 9, "job n=256").number("n", v);
            }),
            "f:9: field 'n' value out of range: '256'");
}

TEST(ParseFlag, MatchesAndNamesTheFlagOnError) {
  unsigned n = 0;
  EXPECT_FALSE(util::Flag("--jobs=3").number("--job", n));
  EXPECT_FALSE(util::Flag("--jobsx=3").number("--jobs", n));
  EXPECT_TRUE(util::Flag("--jobs=3").number("--jobs", n));
  EXPECT_EQ(n, 3u);
  double f = 0;
  EXPECT_TRUE(util::Flag("--frac=1").fraction("--frac", f));
  EXPECT_EQ(f, 1.0);
  unsigned r = 0, c = 0;
  EXPECT_TRUE(util::Flag("--chips=4x2").shape("--chips", r, c));
  EXPECT_EQ(r * 10 + c, 42u);

  const auto error_of = [](auto&& fn) -> std::string {
    try {
      fn();
    } catch (const util::ParseError& e) {
      return e.what();
    }
    return {};
  };
  EXPECT_EQ(error_of([&] { util::Flag("--jobs=abc").number("--jobs", n); }),
            "--jobs needs an unsigned decimal up to 4294967295, got 'abc'");
  EXPECT_EQ(error_of([&] { util::Flag("--jobs=").number("--jobs", n); }),
            "--jobs needs a value, got ''");
  EXPECT_EQ(error_of([&] { util::Flag("--frac=x").fraction("--frac", f); }),
            "--frac needs a fraction in [0,1], got 'x'");
  EXPECT_EQ(error_of([&] { util::Flag("--frac=1.5").fraction("--frac", f); }),
            "--frac needs a fraction in [0,1], got '1.5'");
  EXPECT_EQ(error_of([&] { util::Flag("--chips=0x2").shape("--chips", r, c); }),
            "--chips needs RxC with R,C >= 1 (e.g. 2x2), got '0x2'");
}

// ---- seeded mutation fuzz --------------------------------------------------

/// 1-3 random edits: flip one bit of a byte, insert a digit, or truncate.
std::string mutate(std::string text, sim::Rng& rng) {
  const auto edits = 1 + rng.next_below(3);
  for (std::uint64_t i = 0; i < edits && !text.empty(); ++i) {
    const auto at = static_cast<std::size_t>(rng.next_below(text.size()));
    switch (rng.next_below(3)) {
      case 0: text[at] = static_cast<char>(text[at] ^ (1 << rng.next_below(8))); break;
      case 1: text.insert(at, 1, static_cast<char>('0' + rng.next_below(10))); break;
      default: text.resize(at); break;
    }
  }
  return text;
}

/// True when `msg` starts with "source:N:" for a line N of `text`.
bool names_a_line(const std::string& msg, const std::string& source,
                  const std::string& text) {
  if (msg.compare(0, source.size() + 1, source + ":") != 0) return false;
  const auto colon = msg.find(':', source.size() + 1);
  unsigned line = 0;
  if (colon == std::string::npos ||
      util::parse_number(std::string_view(msg).substr(source.size() + 1,
                                                      colon - source.size() - 1),
                         line) != std::errc{}) {
    return false;
  }
  const auto lines = static_cast<unsigned>(std::count(text.begin(), text.end(), '\n')) + 1;
  return line >= 1 && line <= lines;
}

/// Every mutant of `seed_text` either parses, and its save() text is then a
/// fixed point of parse-then-save, or throws `Error` naming one of its lines.
template <class Error, class Parse, class Save>
void fuzz(const std::string& seed_text, Parse parse, Save save, std::uint64_t seed) {
  ASSERT_EQ(save(parse(seed_text)), seed_text);  // the unmutated round trip
  sim::Rng rng(seed);
  unsigned accepted = 0, rejected = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string text = mutate(seed_text, rng);
    std::string saved;
    try {
      saved = save(parse(text));
    } catch (const Error& e) {
      ++rejected;
      ASSERT_TRUE(names_a_line(e.what(), "fuzz", text)) << e.what() << "\n" << text;
      continue;
    }
    ++accepted;
    ASSERT_EQ(save(parse(saved)), saved) << text;
  }
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);
}

void fuzz_plan(const fault::ChaosConfig& cc, std::uint64_t seed) {
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return fault::parse(in, "fuzz");
  };
  const auto save = [](const fault::FaultPlan& p) { return fault::save(p); };
  fuzz<fault::FaultError>(fault::save(fault::generate(cc)), parse, save, seed);
}

TEST(ParseFuzz, SingleChipPlanMutants) {
  fault::ChaosConfig cc;
  cc.seed = 3;
  cc.dims = {8, 8};
  cc.core_kills = 2;
  cc.core_stalls = 2;
  cc.link_faults = 3;
  cc.elink_outages = 1;
  cc.elink_flips = 1;
  cc.mem_flips = 2;
  fuzz_plan(cc, 101);
}

TEST(ParseFuzz, ClusterPlanMutants) {
  fault::ChaosConfig cc;
  cc.seed = 4;
  cc.dims = {8, 8};
  cc.core_kills = 1;
  cc.link_faults = 1;
  cc.chip_rows = 2;
  cc.chip_cols = 3;
  cc.chip_crashes = 1;
  cc.chip_stalls = 1;
  cc.xmesh_faults = 3;
  cc.notice_drops = 1;
  cc.notice_flips = 1;
  fuzz_plan(cc, 202);
}

TEST(ParseFuzz, PipelineWorkloadMutants) {
  sched::TrafficConfig tc;
  tc.jobs = 16;
  tc.seed = 5;
  tc.pipeline_frac = 0.5;
  auto jobs = sched::generate(tc);
  for (std::size_t i = 0; i < jobs.size(); i += 4) {  // cluster domain tags too
    jobs[i].home_chip = 1;
    jobs[i].origin_chip = 2;
  }
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return sched::load(in, "fuzz");
  };
  const auto save = [](const std::vector<sched::JobSpec>& j) { return sched::save(j); };
  fuzz<util::ParseError>(sched::save(jobs), parse, save, 303);
}

}  // namespace
