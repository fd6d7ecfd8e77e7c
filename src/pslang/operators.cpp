#include "pslang/operators.h"

#include <algorithm>
#include <array>

namespace ps {

namespace {

using C = OpClass;

/// Case-insensitive rows come before their `-i…` and `-c…` variants, and
/// compound assignments come last, so the first row of an id is the one
/// spelling(Op) reports.
constexpr OperatorInfo kTable[] = {
    // spelling        op                 binary            unary  case
    {"+", Op::Add, C::Additive, true, false},
    {"-", Op::Subtract, C::Additive, true, false},
    {"*", Op::Multiply, C::Multiplicative, false, false},
    {"/", Op::Divide, C::Multiplicative, false, false},
    {"%", Op::Remainder, C::Multiplicative, false, false},
    {"..", Op::Range, C::Range, false, false},
    {"-f", Op::Format, C::Format, false, false},
    {",", Op::Comma, C::Comma, true, false},

    {"-join", Op::Join, C::Comparison, true, false},
    {"-ijoin", Op::Join, C::Comparison, false, false},
    {"-cjoin", Op::Join, C::Comparison, false, true},
    {"-split", Op::Split, C::Comparison, true, false},
    {"-isplit", Op::Split, C::Comparison, false, false},
    {"-csplit", Op::Split, C::Comparison, false, true},
    {"-replace", Op::Replace, C::Comparison, false, false},
    {"-ireplace", Op::Replace, C::Comparison, false, false},
    {"-creplace", Op::Replace, C::Comparison, false, true},
    {"-match", Op::Match, C::Comparison, false, false},
    {"-imatch", Op::Match, C::Comparison, false, false},
    {"-cmatch", Op::Match, C::Comparison, false, true},
    {"-notmatch", Op::NotMatch, C::Comparison, false, false},
    {"-inotmatch", Op::NotMatch, C::Comparison, false, false},
    {"-cnotmatch", Op::NotMatch, C::Comparison, false, true},
    {"-like", Op::Like, C::Comparison, false, false},
    {"-ilike", Op::Like, C::Comparison, false, false},
    {"-clike", Op::Like, C::Comparison, false, true},
    {"-notlike", Op::NotLike, C::Comparison, false, false},
    {"-inotlike", Op::NotLike, C::Comparison, false, false},
    {"-cnotlike", Op::NotLike, C::Comparison, false, true},

    {"-eq", Op::Eq, C::Comparison, false, false},
    {"-ieq", Op::Eq, C::Comparison, false, false},
    {"-ceq", Op::Eq, C::Comparison, false, true},
    {"-ne", Op::Ne, C::Comparison, false, false},
    {"-ine", Op::Ne, C::Comparison, false, false},
    {"-cne", Op::Ne, C::Comparison, false, true},
    {"-gt", Op::Gt, C::Comparison, false, false},
    {"-igt", Op::Gt, C::Comparison, false, false},
    {"-cgt", Op::Gt, C::Comparison, false, true},
    {"-ge", Op::Ge, C::Comparison, false, false},
    {"-ige", Op::Ge, C::Comparison, false, false},
    {"-cge", Op::Ge, C::Comparison, false, true},
    {"-lt", Op::Lt, C::Comparison, false, false},
    {"-ilt", Op::Lt, C::Comparison, false, false},
    {"-clt", Op::Lt, C::Comparison, false, true},
    {"-le", Op::Le, C::Comparison, false, false},
    {"-ile", Op::Le, C::Comparison, false, false},
    {"-cle", Op::Le, C::Comparison, false, true},
    {"-contains", Op::Contains, C::Comparison, false, false},
    {"-icontains", Op::Contains, C::Comparison, false, false},
    {"-ccontains", Op::Contains, C::Comparison, false, true},
    {"-notcontains", Op::NotContains, C::Comparison, false, false},
    {"-inotcontains", Op::NotContains, C::Comparison, false, false},
    {"-cnotcontains", Op::NotContains, C::Comparison, false, true},
    {"-in", Op::In, C::Comparison, false, false},
    {"-iin", Op::In, C::Comparison, false, false},
    {"-cin", Op::In, C::Comparison, false, true},
    {"-notin", Op::NotIn, C::Comparison, false, false},
    {"-inotin", Op::NotIn, C::Comparison, false, false},
    {"-cnotin", Op::NotIn, C::Comparison, false, true},

    {"-band", Op::Band, C::Bitwise, false, false},
    {"-bor", Op::Bor, C::Bitwise, false, false},
    {"-bxor", Op::Bxor, C::Bitwise, false, false},
    {"-shl", Op::Shl, C::Bitwise, false, false},
    {"-shr", Op::Shr, C::Bitwise, false, false},
    {"-and", Op::And, C::Logical, false, false},
    {"-or", Op::Or, C::Logical, false, false},
    {"-xor", Op::Xor, C::Logical, false, false},
    {"-is", Op::Is, C::Comparison, false, false},
    {"-isnot", Op::IsNot, C::Comparison, false, false},
    {"-as", Op::As, C::Comparison, false, false},

    {"!", Op::Not, C::None, true, false},
    {"-not", Op::Not, C::None, true, false},
    {"-bnot", Op::Bnot, C::None, true, false},
    {"++", Op::Increment, C::None, true, false},
    {"--", Op::Decrement, C::None, true, false},
    {"++_post", Op::PostIncrement, C::None, false, false},
    {"--_post", Op::PostDecrement, C::None, false, false},

    {"=", Op::None, C::Assignment, false, false},
    {"+=", Op::Add, C::Assignment, false, false},
    {"-=", Op::Subtract, C::Assignment, false, false},
    {"*=", Op::Multiply, C::Assignment, false, false},
    {"/=", Op::Divide, C::Assignment, false, false},
    {"%=", Op::Remainder, C::Assignment, false, false},
};

constexpr std::size_t kRows = std::size(kTable);
constexpr std::size_t kOps = static_cast<std::size_t>(Op::PostDecrement) + 1;

/// The rows sorted by spelling, for lookup.
const std::array<const OperatorInfo*, kRows>& by_spelling() {
  static const auto sorted = [] {
    std::array<const OperatorInfo*, kRows> rows{};
    for (std::size_t i = 0; i < kRows; ++i) rows[i] = &kTable[i];
    std::sort(rows.begin(), rows.end(),
              [](const OperatorInfo* a, const OperatorInfo* b) {
                return a->spelling < b->spelling;
              });
    return rows;
  }();
  return sorted;
}

}  // namespace

std::span<const OperatorInfo> operator_table() { return kTable; }

const OperatorInfo* find_operator(std::string_view spelling) {
  const auto& rows = by_spelling();
  const auto it = std::lower_bound(
      rows.begin(), rows.end(), spelling,
      [](const OperatorInfo* row, std::string_view s) {
        return row->spelling < s;
      });
  return it != rows.end() && (*it)->spelling == spelling ? *it : nullptr;
}

const OperatorInfo* find_named_operator(std::string_view word) {
  // The longest spelling is `-inotcontains`; anything longer is no operator.
  std::array<char, 16> buf{};
  if (word.empty() || word.size() + 1 > buf.size()) return nullptr;
  buf[0] = '-';
  for (std::size_t i = 0; i < word.size(); ++i) {
    const auto c = static_cast<unsigned char>(word[i]);
    if (c < 'A' || (c > 'Z' && c < 'a') || c > 'z') return nullptr;
    buf[i + 1] = static_cast<char>(c | 0x20);
  }
  return find_operator(std::string_view(buf.data(), word.size() + 1));
}

std::string_view spelling(Op op) {
  static const auto names = [] {
    std::array<std::string_view, kOps> out{};
    for (const OperatorInfo& row : kTable) {
      auto& slot = out[static_cast<std::size_t>(row.op)];
      if (slot.empty() && !row.case_sensitive) slot = row.spelling;
    }
    return out;
  }();
  return names[static_cast<std::size_t>(op)];
}

}  // namespace ps
