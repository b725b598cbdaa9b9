#include "io/arff.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>

#include "common/string_util.h"

namespace hpa::io {

namespace {

/// Case-insensitive prefix match for ARFF keywords.
bool KeywordIs(std::string_view line, std::string_view keyword) {
  if (line.size() < keyword.size()) return false;
  for (size_t i = 0; i < keyword.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(line[i])) !=
        std::tolower(static_cast<unsigned char>(keyword[i]))) {
      return false;
    }
  }
  return true;
}

// std::from_chars is the fast path of the two field parsers below. Its
// grammar is strtod's/strtoll's minus a leading '+' and hex, and it rounds
// the same, so any field it reads completely to a normal finite number
// gets the bits strtod gives it. Everything else — a '+' sign, hex, inf
// and nan, zeros, subnormals, out-of-range values, trailing garbage — goes
// to the strtod/strtoll parsers, which decide exactly as they always have
// (accepting "+3" and "0x1p-2", rejecting a subnormal or an overflow).

/// Parses an attribute index (`token` may carry surrounding whitespace).
bool ParseIndex(std::string_view token, int64_t* out) {
  token = hpa::Trim(token);
  int64_t v = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, v);
  if (ec == std::errc() && ptr == end && !token.empty()) {
    *out = v;
    return true;
  }
  return hpa::ParseInt64(token, out);
}

/// Parses an attribute value (`token` may carry surrounding whitespace).
bool ParseValue(std::string_view token, double* out) {
  token = hpa::Trim(token);
  double v = 0.0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, v);
  if (ec == std::errc() && ptr == end && std::isnormal(v)) {
    *out = v;
    return true;
  }
  return hpa::ParseDouble(token, out);
}

}  // namespace

namespace arff_internal {

Status ParseSparseRow(std::string_view line, size_t line_number,
                      uint32_t num_cols, containers::SparseVector* row) {
  auto fail = [&](const std::string& why) {
    return Status::Corruption("ARFF line " + std::to_string(line_number) +
                              ": " + why);
  };
  line = hpa::Trim(line);
  if (line.size() < 2 || line.front() != '{' || line.back() != '}') {
    return fail("sparse row must be wrapped in {}");
  }
  const std::string_view body = hpa::Trim(line.substr(1, line.size() - 2));
  if (body.empty()) return Status::OK();  // all-zero row

  row->Reserve(static_cast<size_t>(std::count(body.begin(), body.end(), ',')) +
               1);
  // Fields are scanned in place: no per-field string or split vector.
  size_t start = 0;
  while (start <= body.size()) {
    size_t comma = body.find(',', start);
    if (comma == std::string_view::npos) comma = body.size();
    const std::string_view field =
        hpa::Trim(body.substr(start, comma - start));
    start = comma + 1;

    const size_t space = field.find(' ');
    if (space == std::string_view::npos) {
      return fail("expected '<idx> <value>', got '" + std::string(field) +
                  "'");
    }
    int64_t idx = 0;
    if (!ParseIndex(field.substr(0, space), &idx) || idx < 0) {
      return fail("bad attribute index in '" + std::string(field) + "'");
    }
    if (static_cast<uint64_t>(idx) >= num_cols) {
      return fail("attribute index " + std::to_string(idx) +
                  " out of range (have " + std::to_string(num_cols) +
                  " attributes)");
    }
    double value = 0.0;
    if (!ParseValue(field.substr(space + 1), &value)) {
      return fail("bad value in '" + std::string(field) + "'");
    }
    if (!row->empty() && row->ids().back() >= static_cast<uint32_t>(idx)) {
      return fail("indices must be strictly ascending");
    }
    row->PushBack(static_cast<uint32_t>(idx), static_cast<float>(value));
  }
  return Status::OK();
}

void AppendSparseRow(const containers::SparseVector& row, std::string& out) {
  out += '{';
  for (size_t i = 0; i < row.nnz(); ++i) {
    if (i > 0) out += ',';
    hpa::AppendUint(out, row.id_at(i));
    out += ' ';
    hpa::AppendDouble(out, static_cast<double>(row.value_at(i)));
  }
  out += "}\n";
}

}  // namespace arff_internal

Status WriteSparseArff(SimDisk* disk, const std::string& rel_path,
                       const std::string& relation_name,
                       const std::vector<std::string>& attributes,
                       const containers::SparseMatrix& matrix) {
  if (attributes.size() != matrix.num_cols) {
    return Status::InvalidArgument(
        "attribute count " + std::to_string(attributes.size()) +
        " != matrix columns " + std::to_string(matrix.num_cols));
  }
  HPA_ASSIGN_OR_RETURN(auto writer, disk->OpenWriter(rel_path));

  std::string chunk;
  chunk.reserve(1 << 16);
  chunk += "% generated by hpa\n@relation ";
  chunk += relation_name;
  chunk += '\n';
  for (const std::string& attr : attributes) {
    chunk += "@attribute ";
    chunk += attr;
    chunk += " numeric\n";
    if (chunk.size() >= (1 << 16)) {
      HPA_RETURN_IF_ERROR(writer->Append(chunk));
      chunk.clear();
    }
  }
  chunk += "@data\n";

  for (const containers::SparseVector& row : matrix.rows) {
    arff_internal::AppendSparseRow(row, chunk);
    if (chunk.size() >= (1 << 16)) {
      HPA_RETURN_IF_ERROR(writer->Append(chunk));
      chunk.clear();
    }
  }
  HPA_RETURN_IF_ERROR(writer->Append(chunk));
  return writer->Close();
}

StatusOr<ArffRelation> ReadSparseArff(SimDisk* disk,
                                      const std::string& rel_path) {
  HPA_ASSIGN_OR_RETURN(auto reader, disk->OpenReader(rel_path));

  ArffRelation rel;
  bool in_data = false;
  size_t line_number = 0;
  std::string_view line;
  while (reader->NextLine(&line)) {
    ++line_number;
    std::string_view trimmed = hpa::Trim(line);
    if (trimmed.empty() || trimmed.front() == '%') continue;

    if (!in_data) {
      if (KeywordIs(trimmed, "@relation")) {
        rel.relation_name = std::string(hpa::Trim(trimmed.substr(9)));
      } else if (KeywordIs(trimmed, "@attribute")) {
        std::string_view rest = hpa::Trim(trimmed.substr(10));
        size_t space = rest.find(' ');
        if (space == std::string_view::npos) {
          return Status::Corruption(
              "ARFF line " + std::to_string(line_number) +
              ": @attribute needs a name and a type");
        }
        std::string_view type = hpa::Trim(rest.substr(space + 1));
        if (!KeywordIs(type, "numeric") && !KeywordIs(type, "real")) {
          return Status::Unimplemented(
              "ARFF line " + std::to_string(line_number) +
              ": only numeric attributes are supported, got '" +
              std::string(type) + "'");
        }
        rel.attributes.emplace_back(rest.substr(0, space));
      } else if (KeywordIs(trimmed, "@data")) {
        in_data = true;
        rel.data.num_cols = static_cast<uint32_t>(rel.attributes.size());
      } else {
        return Status::Corruption("ARFF line " + std::to_string(line_number) +
                                  ": unexpected header line '" +
                                  std::string(trimmed.substr(0, 40)) + "'");
      }
      continue;
    }

    containers::SparseVector row;
    HPA_RETURN_IF_ERROR(arff_internal::ParseSparseRow(
        trimmed, line_number, rel.data.num_cols, &row));
    rel.data.rows.push_back(std::move(row));
  }
  if (!in_data) {
    return Status::Corruption("ARFF file has no @data section: " + rel_path);
  }
  return rel;
}

}  // namespace hpa::io
