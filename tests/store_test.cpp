// Tests for the content-addressed experiment store: JSON round trips,
// canonical key derivation (field-order independence + golden digests),
// hit/miss/insert semantics, crash recovery from corrupted/truncated
// logs (including a seeded byte-mutation fuzz of the log), concurrent
// inserts from TrialPool workers, and the run_trials_stored hit/miss
// bit-identity + verify contract.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/push_pull.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "obs/recorder.h"
#include "sim/engine.h"
#include "sim/parallel.h"
#include "sim/pool.h"
#include "store/cached_trials.h"
#include "store/json.h"
#include "store/key.h"
#include "store/store.h"
#include "util/rng.h"

namespace latgossip {
namespace {

// Fresh scratch directory per test (removed up front so a crashed
// previous run can't leak state into this one).
std::string scratch_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("latgossip_store_test_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

WeightedGraph test_graph() {
  Rng grng(7);
  auto g = make_erdos_renyi(48, 0.15, grng);
  assign_random_uniform_latency(g, 1, 6, grng);
  return g;
}

// ---------------------------------------------------------------------------
// JSON parser / serializer

TEST(StoreJson, ParsesScalarsAndStructure) {
  std::string err;
  const auto doc = json_parse(
      R"({"a":1,"b":-2.5,"c":"x\ny","d":[true,false,null],"e":{"f":42}})",
      &err);
  ASSERT_TRUE(doc) << err;
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->get("a")->as_i64(), 1);
  EXPECT_DOUBLE_EQ(doc->get_double("b", 0), -2.5);
  EXPECT_EQ(doc->get_string("c", ""), "x\ny");
  const JsonValue* d = doc->get("d");
  ASSERT_TRUE(d != nullptr && d->kind() == JsonValue::Kind::kArray);
  ASSERT_EQ(d->items().size(), 3u);
  EXPECT_TRUE(d->items()[0].as_bool());
  EXPECT_FALSE(d->items()[1].as_bool());
  EXPECT_EQ(d->items()[2].kind(), JsonValue::Kind::kNull);
  const JsonValue* e = doc->get("e");
  ASSERT_TRUE(e != nullptr && e->is_object());
  EXPECT_EQ(e->get("f")->as_i64(), 42);
  EXPECT_EQ(doc->get("missing"), nullptr);
  EXPECT_EQ(doc->get_double("missing", -7.0), -7.0);
}

TEST(StoreJson, ExactInt64RoundTrip) {
  const auto doc = json_parse("[9223372036854775807,-9223372036854775808,0]");
  ASSERT_TRUE(doc);
  ASSERT_EQ(doc->items().size(), 3u);
  for (const JsonValue& v : doc->items()) EXPECT_TRUE(v.is_integer());
  EXPECT_EQ(doc->items()[0].as_i64(), INT64_MAX);
  EXPECT_EQ(doc->items()[1].as_i64(), INT64_MIN);
  EXPECT_EQ(json_serialize(*doc),
            "[9223372036854775807,-9223372036854775808,0]");
  // Fractions and exponents are numbers but not exact integers.
  const auto frac = json_parse("[1.5,1e3]");
  ASSERT_TRUE(frac);
  EXPECT_FALSE(frac->items()[0].is_integer());
  EXPECT_FALSE(frac->items()[1].is_integer());
  EXPECT_DOUBLE_EQ(frac->items()[1].as_double(), 1000.0);
}

TEST(StoreJson, StringEscapes) {
  const auto doc = json_parse(R"(["\"\\\/\b\f\n\r\t","Aé"])");
  ASSERT_TRUE(doc);
  EXPECT_EQ(doc->items()[0].as_string(), "\"\\/\b\f\n\r\t");
  EXPECT_EQ(doc->items()[1].as_string(), "A\xc3\xa9");  // é in UTF-8
  // Serialization escapes control characters back out (\b and \f take
  // the generic \u00XX control form; both spellings are valid JSON).
  const std::string out = json_serialize(doc->items()[0]);
  EXPECT_EQ(out, "\"\\\"\\\\/\\u0008\\u000c\\n\\r\\t\"");
  const auto again = json_parse(out);
  ASSERT_TRUE(again);
  EXPECT_EQ(again->as_string(), doc->items()[0].as_string());
}

TEST(StoreJson, RejectsMalformed) {
  std::string err;
  EXPECT_FALSE(json_parse("", &err));
  EXPECT_FALSE(json_parse("{", &err));
  EXPECT_FALSE(json_parse("{\"a\":1} trailing", &err));
  EXPECT_FALSE(json_parse("\"unterminated", &err));
  EXPECT_FALSE(json_parse("{'single':1}", &err));
  EXPECT_FALSE(json_parse("nulll", &err));
  EXPECT_FALSE(json_parse("[1,]", &err));
  EXPECT_FALSE(err.empty());
  // Depth cap: 70 nested arrays exceed the 64-level limit.
  std::string deep(70, '[');
  deep += std::string(70, ']');
  EXPECT_FALSE(json_parse(deep));
  EXPECT_TRUE(json_parse(std::string(60, '[') + std::string(60, ']')));
  // Overflow to infinity has no JSON spelling to serialize back to.
  EXPECT_FALSE(json_parse("1e999"));
  EXPECT_FALSE(json_parse("[-1e999]"));
}

TEST(StoreJson, SerializeParseFixedPoint) {
  const std::string canon =
      R"({"a":[1,2.5,"x"],"b":{"c":true,"d":null},"e":-7})";
  const auto doc = json_parse(canon);
  ASSERT_TRUE(doc);
  const std::string once = json_serialize(*doc);
  const auto doc2 = json_parse(once);
  ASSERT_TRUE(doc2);
  EXPECT_EQ(json_serialize(*doc2), once);
  // Whole-valued doubles keep a fraction, so they stay doubles (and -0
  // keeps its sign) through a second round trip.
  const auto whole = json_parse("[-0.0,100.0,1e2,7]");
  ASSERT_TRUE(whole);
  EXPECT_EQ(json_serialize(*whole), "[-0.0,100.0,100.0,7]");
  EXPECT_EQ(json_serialize(*json_parse(json_serialize(*whole))),
            "[-0.0,100.0,100.0,7]");
}

// ---------------------------------------------------------------------------
// Canonical keys

TEST(StoreKeySuite, FieldOrderIndependence) {
  KeyBuilder a;
  a.add("proto", "pushpull").add("seed", std::uint64_t{42}).add("n", "64");
  KeyBuilder b;
  b.add("n", "64").add("seed", std::uint64_t{42}).add("proto", "pushpull");
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(StoreKeySuite, FieldIdentityMatters) {
  const auto base = KeyBuilder()
                        .add("proto", "pushpull")
                        .add("seed", std::uint64_t{42})
                        .digest();
  // Different value.
  EXPECT_NE(base, KeyBuilder()
                      .add("proto", "pushpull")
                      .add("seed", std::uint64_t{43})
                      .digest());
  // Same bytes under a different field name.
  EXPECT_NE(base, KeyBuilder()
                      .add("proto2", "pushpull")
                      .add("seed", std::uint64_t{42})
                      .digest());
  // Value/name boundary shifts must not collide.
  EXPECT_NE(KeyBuilder().add("ab", "c").digest(),
            KeyBuilder().add("a", "bc").digest());
}

TEST(StoreKeySuite, DuplicateFieldThrows) {
  KeyBuilder b;
  b.add("seed", std::uint64_t{1}).add("seed", std::uint64_t{2});
  EXPECT_THROW(b.digest(), std::invalid_argument);
}

TEST(StoreKeySuite, HexRoundTrip) {
  const StoreKey k{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  const std::string hex = k.hex();
  EXPECT_EQ(hex.size(), 32u);
  EXPECT_EQ(hex, "0123456789abcdeffedcba9876543210");
  const auto back = StoreKey::from_hex(hex);
  ASSERT_TRUE(back);
  EXPECT_EQ(*back, k);
  EXPECT_FALSE(StoreKey::from_hex("short"));
  EXPECT_FALSE(StoreKey::from_hex(std::string(32, 'g')));
  EXPECT_FALSE(StoreKey::from_hex(hex + "00"));
}

// Golden digests: these pin the canonical serialization and the hash.
// A mismatch means every existing store on disk just went cold — only
// accept it for an intentional format change, alongside a
// kStoreModelVersion bump.
TEST(StoreKeySuite, GoldenDigests) {
  const StoreKey k = KeyBuilder()
                         .add("proto", "pushpull")
                         .add("graph", std::uint64_t{0x1234})
                         .add("seed", std::uint64_t{42})
                         .digest();
  EXPECT_EQ(k.hex(), "6e046b84156426966fa13893df82fd0e");

  CellSpec cell;
  cell.protocol = "pushpull";
  cell.graph = 0xfeedfacecafebeefULL;
  cell.source = 3;
  cell.max_rounds = 1000;
  const StoreKey ck = cell_key(cell, 0xabcdef0123456789ULL);
  EXPECT_EQ(ck.hex(), "574ce4ad8edcea2761ef6906e682a4ce");
}

TEST(StoreKeySuite, GraphDigestSensitivity) {
  EXPECT_EQ(graph_digest(make_path(6)), graph_digest(make_path(6)));
  EXPECT_NE(graph_digest(make_path(6)), graph_digest(make_path(7)));
  EXPECT_NE(graph_digest(make_path(6)), graph_digest(make_cycle(6)));
  // One latency flip changes the content address.
  WeightedGraph a = make_path(6);
  WeightedGraph b = make_path(6);
  assign_uniform_latency(b, 2);
  EXPECT_NE(graph_digest(a), graph_digest(b));
}

TEST(StoreKeySuite, CellKeyCoversEveryField) {
  CellSpec base;
  base.protocol = "pushpull";
  base.graph = 99;
  base.source = 0;
  base.max_rounds = 100;
  std::set<std::string> seen;
  seen.insert(cell_key(base, 7).hex());
  auto expect_new = [&](const CellSpec& c, std::uint64_t ts) {
    EXPECT_TRUE(seen.insert(cell_key(c, ts).hex()).second)
        << "collision in cell_key field coverage";
  };
  CellSpec c = base;
  c.protocol = "flooding/dense";
  expect_new(c, 7);
  c = base;
  c.graph = 100;
  expect_new(c, 7);
  c = base;
  c.source = 1;
  expect_new(c, 7);
  c = base;
  c.max_rounds = 101;
  expect_new(c, 7);
  c = base;
  c.kind = "curve";
  expect_new(c, 7);
  c = base;
  c.faults = "{\"drop\":0.1}";
  expect_new(c, 7);
  c = base;
  c.model = "latgossip.model.v2";
  expect_new(c, 7);
  expect_new(base, 8);  // trial seed
}

// ---------------------------------------------------------------------------
// Store round trips + persistence

StoreRecord sample_record(std::uint64_t salt) {
  StoreRecord rec;
  rec.result.rounds = static_cast<Round>(10 + salt);
  rec.result.completed = (salt % 2) == 0;
  rec.result.activations = 100 + salt;
  rec.result.messages_delivered = 200 + salt;
  rec.result.messages_dropped = salt;
  rec.result.exchanges_rejected = salt / 2;
  rec.result.payload_bits = 1000 + salt;
  rec.result.max_inflight = 5 + salt;
  rec.result.fingerprint = 0xdeadbeef00000000ULL | salt;
  rec.wall_ms = 1.25 * static_cast<double>(salt + 1);
  return rec;
}

/// Valid log lines for the mutation tests: plain records and records
/// carrying a meta object with every JSON value kind.
std::vector<std::string> fuzz_base_lines() {
  std::vector<std::string> lines;
  for (std::uint64_t i = 0; i < 4; ++i) {
    StoreRecord rec = sample_record(i);
    if (i % 2 == 1)
      rec.meta = R"({"curve":[1,2.5,-3e-2],"tag":"a\"b\u0001","ok":true,)"
                 R"("none":null,"nested":{"n":-7}})";
    lines.push_back(store_record_line(
        StoreKey{0x0123456789abcdefULL * (i + 1), 0xfedcba9876543210ULL ^ i},
        rec));
  }
  return lines;
}

/// One to three edits: flip a bit, insert a byte (biased toward JSON
/// syntax), delete a byte, truncate, or overwrite the value after a
/// ':' with a token from a dictionary of edge-case JSON values (the
/// AFL dictionary idea: single bytes rarely build "1e999").
std::string mutate_record_line(std::string line, Rng& rng) {
  static constexpr std::string_view kSyntax = "{}[]\",:-+.eE0123456789\\u ";
  static constexpr std::string_view kTokens[] = {
      "-1",   "-0",    "-0.0", "0.5",  "1e999",   "-1e999", "1e300",
      "1e-400", "18446744073709551615", "9223372036854775808",
      "\"x\"", "true", "null", "[]",   "{}",      "{\"k\":-0.0}"};
  const std::uint64_t edits = 1 + rng.uniform(3);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const std::size_t pos = rng.uniform(line.size() + 1);
    switch (rng.uniform(5)) {
      case 0:
        if (pos < line.size())
          line[pos] = static_cast<char>(line[pos] ^ (1 << rng.uniform(8)));
        break;
      case 1: {
        const char byte =
            rng.uniform(2) == 0
                ? kSyntax[rng.uniform(kSyntax.size())]
                : static_cast<char>(rng.uniform(256));
        line.insert(pos, 1, byte);
        break;
      }
      case 2:
        if (pos < line.size()) line.erase(pos, 1);
        break;
      case 3:
        line.resize(pos);
        break;
      default: {
        const std::size_t colon = line.find(':', pos);
        if (colon == std::string::npos) break;
        const std::size_t end = line.find_first_of(",}", colon + 1);
        line.replace(colon + 1,
                     (end == std::string::npos ? line.size() : end) - colon - 1,
                     kTokens[rng.uniform(std::size(kTokens))]);
      }
    }
  }
  return line;
}

TEST(Store, InsertLookupRoundTrip) {
  const std::string dir = scratch_dir("roundtrip");
  ExperimentStore store(dir);
  const StoreKey k1{1, 2};
  const StoreKey k2{3, 4};

  EXPECT_FALSE(store.lookup(k1).has_value());  // miss
  StoreRecord rec = sample_record(1);
  rec.meta = R"({"curve":[1,2,3]})";
  EXPECT_TRUE(store.insert(k1, rec));
  EXPECT_TRUE(store.contains(k1));
  EXPECT_FALSE(store.contains(k2));

  const auto got = store.lookup(k1);
  ASSERT_TRUE(got);
  EXPECT_EQ(got->result, rec.result);  // fingerprint included
  EXPECT_DOUBLE_EQ(got->wall_ms, rec.wall_ms);
  EXPECT_EQ(got->meta, rec.meta);

  // First writer wins: duplicate insert is a no-op.
  StoreRecord other = sample_record(9);
  EXPECT_FALSE(store.insert(k1, other));
  EXPECT_EQ(store.lookup(k1)->result, rec.result);

  const StoreStats s = store.stats();
  EXPECT_EQ(s.records, 1u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.recovered_records, 0u);
  EXPECT_FALSE(s.repaired);
  std::filesystem::remove_all(dir);
}

TEST(Store, PersistsAcrossReopen) {
  const std::string dir = scratch_dir("persist");
  std::vector<StoreKey> keys;
  for (std::uint64_t i = 0; i < 10; ++i) keys.push_back(StoreKey{i, i * 17});
  {
    ExperimentStore store(dir);
    for (std::uint64_t i = 0; i < keys.size(); ++i)
      ASSERT_TRUE(store.insert(keys[i], sample_record(i)));
  }
  ExperimentStore reopened(dir);
  EXPECT_EQ(reopened.size(), keys.size());
  for (std::uint64_t i = 0; i < keys.size(); ++i) {
    const auto got = reopened.lookup(keys[i]);
    ASSERT_TRUE(got) << "key " << i << " lost across reopen";
    EXPECT_EQ(got->result, sample_record(i).result);
  }
  EXPECT_FALSE(reopened.stats().repaired);
  std::filesystem::remove_all(dir);
}

TEST(Store, RecordLineParseRejectsDamage) {
  const StoreKey k{7, 8};
  const StoreRecord rec = sample_record(3);
  const std::string line = store_record_line(k, rec);
  const auto parsed = parse_store_record(line);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->first, k);
  EXPECT_EQ(parsed->second.result, rec.result);

  EXPECT_FALSE(parse_store_record(""));
  EXPECT_FALSE(parse_store_record("not json at all"));
  EXPECT_FALSE(parse_store_record(line.substr(0, line.size() / 2)));
  // Wrong schema.
  std::string wrong = line;
  const auto pos = wrong.find("latgossip.store.v1");
  wrong.replace(pos, 18, "latgossip.store.v9");
  EXPECT_FALSE(parse_store_record(wrong));
  // Malformed key hex.
  std::string badkey = line;
  badkey.replace(badkey.find("\"key\":\"") + 7, 4, "zzzz");
  EXPECT_FALSE(parse_store_record(badkey));
  // Missing result field.
  std::string nofield = line;
  const auto rpos = nofield.find("\"rounds\"");
  ASSERT_NE(rpos, std::string::npos);
  nofield.replace(rpos, 8, "\"r0unds\"");
  EXPECT_FALSE(parse_store_record(nofield));
  // Mistyped or out-of-range fields, each found by the fuzz below: a
  // negative count, a count that is not an integer, and a wall time
  // that overflows to infinity.
  auto with = [&](const std::string& field, const std::string& value) {
    std::string s = line;
    const std::size_t at = s.find("\"" + field + "\":") + field.size() + 3;
    s.replace(at, s.find_first_of(",}", at) - at, value);
    return parse_store_record(s);
  };
  EXPECT_FALSE(with("activations", "-5"));
  EXPECT_FALSE(with("activations", "\"x\""));
  EXPECT_FALSE(with("rounds", "13.5"));
  EXPECT_FALSE(with("wall_ms", "1e999"));
  // A huge wall time is logged in full, not cut to another number.
  const auto huge = with("wall_ms", "1e300");
  ASSERT_TRUE(huge);
  EXPECT_EQ(parse_store_record(store_record_line(huge->first, huge->second))
                ->second.wall_ms,
            1e300);

  // Seeded byte mutations of valid lines, with and without a meta
  // payload: whatever the parser accepts must serialize to a line that
  // parses back to the same record (wall_ms is logged at 3 decimals).
  const std::vector<std::string> valid = fuzz_base_lines();
  Rng rng(20170725);
  std::size_t accepted = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::string mutated =
        mutate_record_line(valid[static_cast<std::size_t>(i) % valid.size()],
                           rng);
    const auto first = parse_store_record(mutated);
    if (!first) continue;
    ++accepted;
    const std::string again = store_record_line(first->first, first->second);
    const auto second = parse_store_record(again);
    ASSERT_TRUE(second) << "accepted " << mutated << "\nbut not " << again;
    EXPECT_EQ(second->first, first->first) << mutated;
    EXPECT_EQ(second->second.result, first->second.result) << mutated;
    EXPECT_EQ(second->second.meta, first->second.meta) << mutated;
    EXPECT_NEAR(second->second.wall_ms, first->second.wall_ms, 5e-4)
        << mutated;
    EXPECT_EQ(store_record_line(second->first, second->second), again)
        << mutated;
  }
  // Most single-byte damage lands in digits and string bodies the
  // parser accepts, so the round-trip arm above is actually exercised.
  EXPECT_GT(accepted, 100u);
}

TEST(Store, OpenSurvivesMutatedLogLines) {
  const std::string dir = scratch_dir("fuzz_log");
  const std::vector<std::string> valid = fuzz_base_lines();
  Rng rng(4242);
  // Damage on both sides of every valid line: mutants of line i come
  // right before it (so a mutant that still parses under line i's key
  // is overwritten by the original, as replay is last-wins) and after
  // line i - 1.
  std::string log;
  for (const std::string& line : valid) {
    for (int m = 0; m < 150; ++m) log += mutate_record_line(line, rng) + '\n';
    log += line + '\n';
  }
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/store.v1.log", std::ios::binary) << log;
  // Count damage the way replay reads the log: line by line, so a
  // mutation that inserted a '\n' yields two lines.
  std::size_t damaged = 0;
  std::set<std::string> keys;
  std::istringstream lines(log);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty()) continue;
    if (const auto rec = parse_store_record(line))
      keys.insert(rec->first.hex());
    else
      ++damaged;
  }

  auto expect_valid_lines_kept = [&](ExperimentStore& store) {
    EXPECT_EQ(store.size(), keys.size());
    for (const std::string& line : valid) {
      const auto want = parse_store_record(line);
      ASSERT_TRUE(want);
      const auto got = store.lookup(want->first);
      ASSERT_TRUE(got) << "valid line lost: " << line;
      EXPECT_EQ(got->result, want->second.result);
      EXPECT_EQ(got->meta, want->second.meta);
      EXPECT_EQ(got->wall_ms, want->second.wall_ms);
    }
  };
  {
    ExperimentStore store(dir);
    EXPECT_EQ(store.stats().recovered_records, damaged);
    EXPECT_EQ(store.stats().repaired, damaged > 0);
    expect_valid_lines_kept(store);
  }
  // The repaired log holds only lines the parser accepts.
  ExperimentStore reopened(dir);
  EXPECT_EQ(reopened.stats().recovered_records, 0u);
  expect_valid_lines_kept(reopened);
  std::filesystem::remove_all(dir);
}

TEST(Store, RecoversFromCorruptedAndTruncatedLog) {
  const std::string dir = scratch_dir("recover");
  std::vector<StoreKey> keys;
  for (std::uint64_t i = 0; i < 6; ++i) keys.push_back(StoreKey{i + 1, i});
  std::string log_path;
  {
    ExperimentStore store(dir);
    log_path = store.log_path();
    for (std::uint64_t i = 0; i < keys.size(); ++i)
      ASSERT_TRUE(store.insert(keys[i], sample_record(i)));
  }
  // Damage the middle of the log (a bad sector) and truncate the tail
  // (a crash mid-append): read all lines, corrupt line 2, chop half of
  // the final line, and append one garbage line for good measure.
  std::vector<std::string> lines;
  {
    std::ifstream in(log_path);
    std::string l;
    while (std::getline(in, l)) lines.push_back(l);
  }
  ASSERT_EQ(lines.size(), keys.size());
  lines[2] = "{\"schema\":\"latgossip.store.v1\",\"key\":CORRUPTED";
  lines.back() = lines.back().substr(0, lines.back().size() / 2);
  {
    std::ofstream out(log_path, std::ios::trunc);
    for (const std::string& l : lines) out << l << '\n';
    out << "garbage that is not json\n";
  }

  ExperimentStore recovered(dir);
  // Valid records survive — including the ones *after* the corrupted
  // line; the damaged line, the truncated tail, and the garbage are
  // dropped and counted.
  EXPECT_EQ(recovered.size(), keys.size() - 2);
  EXPECT_EQ(recovered.stats().recovered_records, 3u);
  EXPECT_TRUE(recovered.stats().repaired);
  EXPECT_TRUE(recovered.contains(keys[3]));  // after the corruption
  EXPECT_FALSE(recovered.contains(keys[2]));
  EXPECT_FALSE(recovered.contains(keys.back()));
  // Repair-on-open rewrote the log: a second open sees a clean file.
  ExperimentStore clean(dir);
  EXPECT_EQ(clean.size(), keys.size() - 2);
  EXPECT_EQ(clean.stats().recovered_records, 0u);
  EXPECT_FALSE(clean.stats().repaired);
  // And the store stays writable after repair.
  EXPECT_TRUE(clean.insert(StoreKey{100, 100}, sample_record(7)));
  std::filesystem::remove_all(dir);
}

TEST(Store, ConcurrentInsertsFromPoolWorkers) {
  const std::string dir = scratch_dir("concurrent");
  ExperimentStore store(dir);
  constexpr std::size_t kCells = 64;
  // Workers hammer insert + lookup + contains concurrently; every
  // observable must come out consistent (exercised under TSan in CI).
  TrialPool::global().run(kCells, 8, [&](std::size_t i, std::size_t) {
    const StoreKey key{i + 1, i * 31};
    ASSERT_TRUE(store.insert(key, sample_record(i)));
    ASSERT_FALSE(store.insert(key, sample_record(i)));  // dup is a no-op
    const auto got = store.lookup(key);
    ASSERT_TRUE(got);
    EXPECT_EQ(got->result, sample_record(i).result);
    store.contains(StoreKey{(i + 7) % kCells + 1, 0});
  });
  EXPECT_EQ(store.size(), kCells);
  EXPECT_EQ(store.stats().inserts, kCells);
  // Every record made it to disk intact.
  ExperimentStore reopened(dir);
  EXPECT_EQ(reopened.size(), kCells);
  EXPECT_EQ(reopened.stats().recovered_records, 0u);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// run_trials_stored

TrialWsFn recorded_push_pull_trial(const WeightedGraph& g) {
  return [&g](std::size_t, Rng rng, TrialWorkspace& ws) {
    thread_local EventRecorder recorder;
    recorder.clear();
    NetworkView view(g, false);
    auto& proto = ws.slot<PushPullBroadcast>(view, 0, rng);
    proto.reset(view, 0, rng);
    SimOptions opts;
    opts.workspace = &ws;
    opts.recorder = &recorder;
    SimResult result = run_gossip(g, proto, opts);
    result.fingerprint = recorder.fingerprint();
    return result;
  };
}

StoreBinding bind_cell(ExperimentStore& store, const WeightedGraph& g,
                       bool verify = false) {
  StoreBinding binding;
  binding.store = &store;
  binding.verify = verify;
  binding.cell.protocol = "pushpull";
  binding.cell.graph = graph_digest(g);
  binding.cell.source = 0;
  binding.cell.max_rounds = 5'000'000;
  return binding;
}

TEST(RunTrialsStored, MissThenHitBitIdentical) {
  const std::string dir = scratch_dir("stored_hit");
  const WeightedGraph g = test_graph();
  const TrialWsFn trial = recorded_push_pull_trial(g);
  ExperimentStore store(dir);
  StoredBatchStats cold, warm;

  const TrialAggregate fresh =
      run_trials_stored(bind_cell(store, g), &cold, 8, 4, 99, trial);
  EXPECT_EQ(cold.misses, 8u);
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_EQ(cold.verified, 0u);

  const TrialAggregate cached =
      run_trials_stored(bind_cell(store, g), &warm, 8, 4, 99, trial);
  EXPECT_EQ(warm.hits, 8u);
  EXPECT_EQ(warm.misses, 0u);

  // Hit batches aggregate bit-identically to computed batches —
  // per-trial results, merged fingerprint, and accumulators.
  ASSERT_EQ(cached.trials.size(), fresh.trials.size());
  for (std::size_t t = 0; t < fresh.trials.size(); ++t)
    EXPECT_EQ(cached.trials[t], fresh.trials[t]) << "trial " << t;
  EXPECT_EQ(cached.fingerprint, fresh.fingerprint);
  EXPECT_EQ(cached.num_completed, fresh.num_completed);
  EXPECT_DOUBLE_EQ(cached.rounds.mean(), fresh.rounds.mean());
  std::filesystem::remove_all(dir);
}

TEST(RunTrialsStored, ResumedSweepHitsComputedCells) {
  const std::string dir = scratch_dir("stored_resume");
  const WeightedGraph g = test_graph();
  const TrialWsFn trial = recorded_push_pull_trial(g);
  ExperimentStore store(dir);
  StoredBatchStats first, resumed;

  // 4 trials now, 8 later: per-trial keys derive from trial_seed(), so
  // the wider sweep re-uses the 4 computed cells and only pays for the
  // new ones.
  run_trials_stored(bind_cell(store, g), &first, 4, 2, 99, trial);
  EXPECT_EQ(first.misses, 4u);
  const TrialAggregate agg =
      run_trials_stored(bind_cell(store, g), &resumed, 8, 2, 99, trial);
  EXPECT_EQ(resumed.hits, 4u);
  EXPECT_EQ(resumed.misses, 4u);

  // And the mixed hit/miss batch equals an all-fresh batch.
  const std::string dir2 = scratch_dir("stored_resume_fresh");
  ExperimentStore fresh_store(dir2);
  const TrialAggregate fresh =
      run_trials_stored(bind_cell(fresh_store, g), nullptr, 8, 2, 99, trial);
  EXPECT_EQ(agg.fingerprint, fresh.fingerprint);
  for (std::size_t t = 0; t < 8; ++t)
    EXPECT_EQ(agg.trials[t], fresh.trials[t]);
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dir2);
}

TEST(RunTrialsStored, SeedChangesMissTheCache) {
  const std::string dir = scratch_dir("stored_seed");
  const WeightedGraph g = test_graph();
  const TrialWsFn trial = recorded_push_pull_trial(g);
  ExperimentStore store(dir);
  run_trials_stored(bind_cell(store, g), nullptr, 4, 2, 99, trial);
  StoredBatchStats other;
  run_trials_stored(bind_cell(store, g), &other, 4, 2, 100, trial);
  EXPECT_EQ(other.hits, 0u);
  EXPECT_EQ(other.misses, 4u);
  std::filesystem::remove_all(dir);
}

TEST(RunTrialsStored, VerifyPassesOnHonestCacheAndCatchesPoison) {
  const std::string dir = scratch_dir("stored_verify");
  const WeightedGraph g = test_graph();
  const TrialWsFn trial = recorded_push_pull_trial(g);
  ExperimentStore store(dir);
  run_trials_stored(bind_cell(store, g), nullptr, 4, 2, 99, trial);

  StoredBatchStats verified;
  run_trials_stored(bind_cell(store, g, /*verify=*/true), &verified, 4, 2, 99,
                    trial);
  EXPECT_EQ(verified.hits, 4u);
  EXPECT_EQ(verified.verified, 4u);

  // Poison one cell in a fresh store: verify must throw, naming the key.
  const std::string dir2 = scratch_dir("stored_poison");
  ExperimentStore poisoned(dir2);
  StoreBinding binding = bind_cell(poisoned, g, /*verify=*/true);
  StoreRecord bogus = sample_record(5);
  const StoreKey key = cell_key(binding.cell, trial_seed(99, 0));
  ASSERT_TRUE(poisoned.insert(key, bogus));
  EXPECT_THROW(
      run_trials_stored(binding, nullptr, 4, 2, 99, trial),
      std::runtime_error);
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dir2);
}

TEST(RunTrialsStored, MetaRoundTrip) {
  const std::string dir = scratch_dir("stored_meta");
  const WeightedGraph g = test_graph();
  const TrialWsFn trial = recorded_push_pull_trial(g);
  ExperimentStore store(dir);

  StoreBinding binding = bind_cell(store, g);
  binding.cell.kind = "meta_test";
  binding.meta_fn = [](std::size_t t) {
    return "{\"trial\":" + std::to_string(t) + "}";
  };
  std::vector<std::string> replayed(4);
  binding.on_hit_meta = [&](std::size_t t, const std::string& meta) {
    replayed[t] = meta;
  };
  run_trials_stored(binding, nullptr, 4, 2, 99, trial);
  EXPECT_EQ(replayed, std::vector<std::string>(4));  // misses don't replay

  run_trials_stored(binding, nullptr, 4, 2, 99, trial);
  for (std::size_t t = 0; t < 4; ++t)
    EXPECT_EQ(replayed[t], "{\"trial\":" + std::to_string(t) + "}");
  std::filesystem::remove_all(dir);
}

TEST(RunTrialsStored, RequiresStore) {
  StoreBinding binding;  // no store bound
  EXPECT_THROW(run_trials_stored(binding, nullptr, 1, 1, 1,
                                 [](std::size_t, Rng, TrialWorkspace&) {
                                   return SimResult{};
                                 }),
               std::invalid_argument);
}

}  // namespace
}  // namespace latgossip
