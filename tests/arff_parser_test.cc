// Behaviour suite for the sparse-ARFF row parser
// (arff_internal::ParseSparseRow), shared by the plain and sharded
// readers: an edge-case table whose accept/reject decisions, values and
// messages were pinned from the strtod-based parser that preceded the
// in-place one, and seeded byte mutations of written files, where every
// mutant must read exactly as a test-local copy of that strtod parser
// reads it. Labelled "kernel" (ctest -L kernel) with an ASan twin.

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "io/arff.h"
#include "io/file_io.h"
#include "io/sharded_arff.h"
#include "parallel/executor.h"

namespace hpa::io {
namespace {

using containers::SparseMatrix;
using containers::SparseVector;

/// The strtod-based row parser the in-place one replaced, kept verbatim
/// as the reference (as io_test keeps the bytewise CRC).
Status ReferenceParseRow(std::string_view line, size_t line_number,
                         uint32_t num_cols, SparseVector* row) {
  auto fail = [&](const std::string& why) {
    return Status::Corruption("ARFF line " + std::to_string(line_number) +
                              ": " + why);
  };
  line = hpa::Trim(line);
  if (line.size() < 2 || line.front() != '{' || line.back() != '}') {
    return fail("sparse row must be wrapped in {}");
  }
  std::string_view body = line.substr(1, line.size() - 2);
  body = hpa::Trim(body);
  if (body.empty()) return Status::OK();  // all-zero row

  for (std::string_view field : hpa::Split(body, ',')) {
    field = hpa::Trim(field);
    size_t space = field.find(' ');
    if (space == std::string_view::npos) {
      return fail("expected '<idx> <value>', got '" + std::string(field) +
                  "'");
    }
    int64_t idx = 0;
    if (!hpa::ParseInt64(field.substr(0, space), &idx) || idx < 0) {
      return fail("bad attribute index in '" + std::string(field) + "'");
    }
    if (static_cast<uint64_t>(idx) >= num_cols) {
      return fail("attribute index " + std::to_string(idx) +
                  " out of range (have " + std::to_string(num_cols) +
                  " attributes)");
    }
    double value = 0.0;
    if (!hpa::ParseDouble(field.substr(space + 1), &value)) {
      return fail("bad value in '" + std::string(field) + "'");
    }
    if (!row->empty() && row->ids().back() >= static_cast<uint32_t>(idx)) {
      return fail("indices must be strictly ascending");
    }
    row->PushBack(static_cast<uint32_t>(idx), static_cast<float>(value));
  }
  return Status::OK();
}

uint32_t FloatBits(float v) {
  uint32_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Rows equal id for id and bit for bit (NaN payloads included).
bool SameRow(const SparseVector& a, const SparseVector& b) {
  if (a.ids() != b.ids()) return false;
  for (size_t i = 0; i < a.nnz(); ++i) {
    if (FloatBits(a.value_at(i)) != FloatBits(b.value_at(i))) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Edge cases, pinned from the strtod parser (3 attributes, line 7)
// ---------------------------------------------------------------------------

struct EdgeCase {
  const char* line;
  bool ok;
  std::vector<std::pair<uint32_t, uint32_t>> values;  // id, float bits
  const char* error;
};

const EdgeCase kEdgeCases[] = {
    {"{0 +0.5}", true, {{0, 0x3f000000u}}, ""},
    {"{0 +3}", true, {{0, 0x40400000u}}, ""},
    {"{0 .5}", true, {{0, 0x3f000000u}}, ""},
    {"{0 5.}", true, {{0, 0x40a00000u}}, ""},
    {"{0 1e-310}", false, {}, "ARFF line 7: bad value in '0 1e-310'"},
    {"{0 1e400}", false, {}, "ARFF line 7: bad value in '0 1e400'"},
    {"{0 nan}", true, {{0, 0x7fc00000u}}, ""},
    {"{0 inf}", true, {{0, 0x7f800000u}}, ""},
    {"{0 0x1p-2}", true, {{0, 0x3e800000u}}, ""},
    {"{0  0.5}", true, {{0, 0x3f000000u}}, ""},
    {"{0 5e}", false, {}, "ARFF line 7: bad value in '0 5e'"},
    {"{-1 0.5}", false, {}, "ARFF line 7: bad attribute index in '-1 0.5'"},
    {"{12345678901234567890 1}", false, {},
     "ARFF line 7: bad attribute index in '12345678901234567890 1'"},
    {"{+3 1}", false, {},
     "ARFF line 7: attribute index 3 out of range (have 3 attributes)"},
    {"{0x1 1}", false, {}, "ARFF line 7: bad attribute index in '0x1 1'"},
    {"{1 1,0 2}", false, {}, "ARFF line 7: indices must be strictly ascending"},
    {"{0 1,}", false, {}, "ARFF line 7: expected '<idx> <value>', got ''"},
    {"{}", true, {}, ""},
    {"{ }", true, {}, ""},
    {"{0\t1}", false, {}, "ARFF line 7: expected '<idx> <value>', got '0\t1'"},
    {"{0 1 2}", false, {}, "ARFF line 7: bad value in '0 1 2'"},
    {"{0 -0}", true, {{0, 0x80000000u}}, ""},
    {"{0 1e-400}", false, {}, "ARFF line 7: bad value in '0 1e-400'"},
    {"{0 -inf}", true, {{0, 0xff800000u}}, ""},
    {"{0 NaN}", true, {{0, 0x7fc00000u}}, ""},
    {"{0 infinity}", true, {{0, 0x7f800000u}}, ""},
    {"{0 nan(123)}", true, {{0, 0x7fc00000u}}, ""},
    {"{9223372036854775807 1}", false, {},
     "ARFF line 7: attribute index 9223372036854775807 out of range (have 3 "
     "attributes)"},
    {"{3 1}", false, {},
     "ARFF line 7: attribute index 3 out of range (have 3 attributes)"},
    {"{0 1e39}", true, {{0, 0x7f800000u}}, ""},
    {" {0 1} ", true, {{0, 0x3f800000u}}, ""},
    {"{0 1", false, {}, "ARFF line 7: sparse row must be wrapped in {}"},
    {"0 1}", false, {}, "ARFF line 7: sparse row must be wrapped in {}"},
    {"{0 1 , 1 2}", true, {{0, 0x3f800000u}, {1, 0x40000000u}}, ""},
    {"{ 0 1,1 2 }", true, {{0, 0x3f800000u}, {1, 0x40000000u}}, ""},
    {"{-0 1}", true, {{0, 0x3f800000u}}, ""},
    {"{0 -1e-310}", false, {}, "ARFF line 7: bad value in '0 -1e-310'"},
    {"{0 1.5e-45}", true, {{0, 0x00000001u}}, ""},
    {"{0 2.2250738585072014e-308}", true, {{0, 0x00000000u}}, ""},
    {"{0 2.2250738585072011e-308}", false, {},
     "ARFF line 7: bad value in '0 2.2250738585072011e-308'"},
    {"{0 0.1,2 0.25}", true, {{0, 0x3dcccccdu}, {2, 0x3e800000u}}, ""},
    {"{1\t 0.5}", true, {{1, 0x3f000000u}}, ""},
    {"{0 1e}", false, {}, "ARFF line 7: bad value in '0 1e'"},
    {"{0 1e+}", false, {}, "ARFF line 7: bad value in '0 1e+'"},
    {"{0 -.5}", true, {{0, 0xbf000000u}}, ""},
    {"{0 .}", false, {}, "ARFF line 7: bad value in '0 .'"},
    {"{0 -}", false, {}, "ARFF line 7: bad value in '0 -'"},
    {"{0 +}", false, {}, "ARFF line 7: bad value in '0 +'"},
    {"{ 0 1 }", true, {{0, 0x3f800000u}}, ""},
    {"{0 1,,1 2}", false, {}, "ARFF line 7: expected '<idx> <value>', got ''"},
    {"{,}", false, {}, "ARFF line 7: expected '<idx> <value>', got ''"},
    {"{0 0X1P-2}", true, {{0, 0x3e800000u}}, ""},
    {"{0 -0x1p-2}", true, {{0, 0xbe800000u}}, ""},
    {"{0 +inf}", true, {{0, 0x7f800000u}}, ""},
    {"{0 +nan}", true, {{0, 0x7fc00000u}}, ""},
    {"{0 1_0}", false, {}, "ARFF line 7: bad value in '0 1_0'"},
    {"{00 1}", true, {{0, 0x3f800000u}}, ""},
    {"{0 0001.5}", true, {{0, 0x3fc00000u}}, ""},
    {"{0 1.0e-3}", true, {{0, 0x3a83126fu}}, ""},
    {"{0 3.4028235677973366e38}", true, {{0, 0x7f800000u}}, ""},
    {"{0 1e308}", true, {{0, 0x7f800000u}}, ""},
    {"{0 4.9e-324}", false, {}, "ARFF line 7: bad value in '0 4.9e-324'"},
    {"{0 0e-400}", true, {{0, 0x00000000u}}, ""},
    {"{0 0.0}", true, {{0, 0x00000000u}}, ""},
    {"{2 1,2 1}", false, {}, "ARFF line 7: indices must be strictly ascending"},
    {"{0 1,1}", false, {}, "ARFF line 7: expected '<idx> <value>', got '1'"},
    {"{a 1}", false, {}, "ARFF line 7: bad attribute index in 'a 1'"},
    {"{0 b}", false, {}, "ARFF line 7: bad value in '0 b'"},
    {"{1 0.333333333333333314829616256247390992939472198486328125}",
     true,
     {{1, 0x3eaaaaabu}},
     ""},
    {"{0 123456789012345678901234567890}", true, {{0, 0x6fc77488u}}, ""},
    {"{0 1E5}", true, {{0, 0x47c35000u}}, ""},
    {"{0 1e-5,1 1e+5}", true, {{0, 0x3727c5acu}, {1, 0x47c35000u}}, ""},
};

TEST(ArffParserTest, EdgeCasesKeepTheirPinnedDecisions) {
  for (const EdgeCase& c : kEdgeCases) {
    SparseVector row;
    const Status s = arff_internal::ParseSparseRow(c.line, 7, 3, &row);
    EXPECT_EQ(s.ok(), c.ok) << c.line << ": " << s;
    if (c.ok) {
      ASSERT_EQ(row.nnz(), c.values.size()) << c.line;
      for (size_t i = 0; i < row.nnz(); ++i) {
        EXPECT_EQ(row.id_at(i), c.values[i].first) << c.line;
        EXPECT_EQ(FloatBits(row.value_at(i)), c.values[i].second) << c.line;
      }
    } else {
      EXPECT_EQ(s.code(), StatusCode::kCorruption) << c.line;
      EXPECT_EQ(s.message(), c.error) << c.line;
    }
    // The reference parser agrees with the pinned table.
    SparseVector ref;
    const Status rs = ReferenceParseRow(c.line, 7, 3, &ref);
    EXPECT_EQ(rs.ToString(), s.ToString()) << c.line;
    EXPECT_TRUE(SameRow(ref, row)) << c.line;
  }
}

// ---------------------------------------------------------------------------
// Seeded byte mutations of written files
// ---------------------------------------------------------------------------

/// Random sparse rows whose values span signs and magnitudes, so the
/// written text has exponents, long mantissas and negative numbers.
SparseMatrix RandomMatrix(size_t rows, uint32_t cols, uint64_t seed) {
  Rng rng(seed);
  SparseMatrix m;
  m.num_cols = cols;
  for (size_t r = 0; r < rows; ++r) {
    std::vector<std::pair<uint32_t, float>> pairs;
    for (uint32_t c = 0; c < cols; ++c) {
      if (rng.NextBounded(3) != 0) continue;
      double v = rng.NextDouble() - 0.5;
      switch (rng.NextBounded(4)) {
        case 0: v *= 1e-6; break;
        case 1: v *= 1e6; break;
        default: break;
      }
      pairs.emplace_back(c, static_cast<float>(v));
    }
    m.rows.push_back(SparseVector::FromPairs(std::move(pairs)));
  }
  return m;
}

std::vector<std::string> Attrs(uint32_t n) {
  std::vector<std::string> out;
  for (uint32_t i = 0; i < n; ++i) out.push_back("a" + std::to_string(i));
  return out;
}

/// Applies 1-3 random edits to `text` at positions >= `from`: replace,
/// insert or delete a byte, drawing mostly from the characters the row
/// grammar cares about.
std::string Mutate(const std::string& text, size_t from, Rng& rng) {
  static constexpr std::string_view kAlphabet =
      "0123456789 ,{}+-.eExXpPinfaN\t\n%";
  std::string out = text;
  const uint64_t edits = 1 + rng.NextBounded(3);
  for (uint64_t e = 0; e < edits && out.size() > from; ++e) {
    const size_t pos = from + rng.NextBounded(out.size() - from);
    const char ch = rng.NextBounded(8) == 0
                        ? static_cast<char>(rng.NextBounded(256))
                        : kAlphabet[rng.NextBounded(kAlphabet.size())];
    switch (rng.NextBounded(3)) {
      case 0: out[pos] = ch; break;
      case 1: out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos), ch);
        break;
      default: out.erase(pos, 1); break;
    }
  }
  return out;
}

/// Lines of `text` as SimReader::NextLine yields them.
std::vector<std::string_view> Lines(std::string_view text) {
  std::vector<std::string_view> lines;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

class ArffMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("hpa_arff_parser_");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
    disk_ = std::make_unique<SimDisk>(DiskOptions::LocalHdd(), dir_, nullptr);
  }
  void TearDown() override { RemoveDirRecursive(dir_); }

  std::string dir_;
  std::unique_ptr<SimDisk> disk_;
};

TEST_F(ArffMutationTest, MutantsReadAsTheStrtodParserReadsThem) {
  const SparseMatrix matrix = RandomMatrix(24, 12, 5);
  ASSERT_TRUE(
      WriteSparseArff(disk_.get(), "m.arff", "m", Attrs(12), matrix).ok());
  auto written = disk_->ReadFile("m.arff");
  ASSERT_TRUE(written.ok());
  const size_t data_at = written->find("@data\n") + 6;
  ASSERT_GT(data_at, 6u);

  Rng rng(20161024);
  int rejected = 0;
  for (int m = 0; m < 400; ++m) {
    const std::string mutant = Mutate(*written, data_at, rng);
    ASSERT_TRUE(disk_->WriteFile("mutant.arff", mutant).ok());
    auto got = ReadSparseArff(disk_.get(), "mutant.arff");

    // The reference reading of the (untouched) header's data section.
    Status want_status;
    std::vector<SparseVector> want_rows;
    const std::vector<std::string_view> lines = Lines(mutant);
    for (size_t i = 0; i < lines.size() && want_status.ok(); ++i) {
      if (static_cast<size_t>(lines[i].data() - mutant.data()) < data_at) {
        continue;  // header line
      }
      const std::string_view line = hpa::Trim(lines[i]);
      if (line.empty() || line.front() == '%') continue;
      SparseVector row;
      want_status = ReferenceParseRow(line, i + 1, 12, &row);
      want_rows.push_back(std::move(row));
    }

    ASSERT_EQ(got.ok(), want_status.ok())
        << "mutant " << m << ": got " << got.status() << ", reference "
        << want_status << "\n"
        << mutant.substr(data_at);
    if (!got.ok()) {
      ++rejected;
      EXPECT_EQ(got.status().ToString(), want_status.ToString())
          << "mutant " << m;
      continue;
    }
    ASSERT_EQ(got->data.num_rows(), want_rows.size()) << "mutant " << m;
    for (size_t r = 0; r < want_rows.size(); ++r) {
      EXPECT_TRUE(SameRow(got->data.rows[r], want_rows[r]))
          << "mutant " << m << " row " << r;
    }
  }
  // The mutations must exercise both outcomes.
  EXPECT_GT(rejected, 40);
  EXPECT_LT(rejected, 400);
}

TEST_F(ArffMutationTest, ShardedMutantsReadAsTheStrtodParserReadsThem) {
  parallel::SerialExecutor exec;
  const SparseMatrix matrix = RandomMatrix(30, 9, 8);
  ASSERT_TRUE(WriteShardedArff(disk_.get(), &exec, "s", "s", Attrs(9),
                               matrix, 3)
                  .ok());
  // A v1 (checksum-free) manifest, so mutated shards reach the parser
  // instead of failing their CRC.
  auto manifest = disk_->ReadFile("s.manifest");
  ASSERT_TRUE(manifest.ok());
  std::string v1 = *manifest;
  const size_t magic_end = v1.find('\n');
  const size_t ck_begin = v1.find("\nchecksums ");
  ASSERT_NE(ck_begin, std::string::npos);
  const size_t ck_end = v1.find('\n', ck_begin + 1);
  v1 = "HPA-SHARDED-ARFF 1" + v1.substr(magic_end, ck_begin - magic_end) +
       v1.substr(ck_end);
  ASSERT_TRUE(disk_->WriteFile("s.manifest", v1).ok());

  std::vector<std::string> shards;
  for (int s = 0; s < 3; ++s) {
    auto bytes = disk_->ReadFile("s." + std::to_string(s));
    ASSERT_TRUE(bytes.ok());
    shards.push_back(*bytes);
  }
  const size_t rows_per_shard = 10;

  Rng rng(70717);
  int rejected = 0;
  for (int m = 0; m < 150; ++m) {
    const size_t target = rng.NextBounded(3);
    std::vector<std::string> mutated = shards;
    mutated[target] = Mutate(shards[target], 0, rng);
    for (int s = 0; s < 3; ++s) {
      ASSERT_TRUE(disk_->WriteFile("s." + std::to_string(s),
                                   mutated[static_cast<size_t>(s)])
                      .ok());
    }
    auto got = ReadShardedArff(disk_.get(), &exec, "s");

    // Reference: every shard's non-blank lines parse, and each shard
    // holds exactly the rows the manifest declares.
    bool want_ok = true;
    std::vector<SparseVector> want_rows;
    for (size_t s = 0; s < 3 && want_ok; ++s) {
      const std::vector<std::string_view> lines = Lines(mutated[s]);
      size_t rows = 0;
      for (size_t i = 0; i < lines.size() && want_ok; ++i) {
        const std::string_view line = hpa::Trim(lines[i]);
        if (line.empty()) continue;
        SparseVector row;
        want_ok = ++rows <= rows_per_shard &&
                  ReferenceParseRow(line, i + 1, 9, &row).ok();
        want_rows.push_back(std::move(row));
      }
      want_ok = want_ok && rows == rows_per_shard;
    }

    ASSERT_EQ(got.ok(), want_ok)
        << "mutant " << m << ": got " << got.status();
    if (!got.ok()) {
      ++rejected;
      continue;
    }
    ASSERT_EQ(got->data.num_rows(), want_rows.size());
    for (size_t r = 0; r < want_rows.size(); ++r) {
      EXPECT_TRUE(SameRow(got->data.rows[r], want_rows[r]))
          << "mutant " << m << " row " << r;
    }
  }
  EXPECT_GT(rejected, 15);
  EXPECT_LT(rejected, 150);
}

}  // namespace
}  // namespace hpa::io
