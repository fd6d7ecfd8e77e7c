#pragma once

/// \file operators.h
/// The one table of PowerShell operators. Every operator spelling the
/// lexer accepts is a row here, with the id the parser stores on
/// BinaryExpressionAst, UnaryExpressionAst and AssignmentStatementAst,
/// the precedence class it parses at, and whether it is a case-sensitive
/// (`-c…`) variant. The interpreter and the recovery phase dispatch on ids
/// and never compare spellings (`scripts/check_operator_sites.sh`).

#include <cstdint>
#include <span>
#include <string_view>

namespace ps {

/// What an operator does. Case variants share an id (`-ceq`, `-ieq` and
/// `-eq` are all Eq) and differ in OperatorInfo::case_sensitive; a
/// compound assignment carries the id of its binary operator (`+=` is
/// Add), plain `=` is None.
enum class Op : std::uint8_t {
  None,
  // Arithmetic; unary `-` / `+` are Subtract / Add.
  Add, Subtract, Multiply, Divide, Remainder,
  Range, Format,
  // String operators.
  Join, Split, Replace, Match, NotMatch, Like, NotLike,
  // Comparison and containment.
  Eq, Ne, Gt, Ge, Lt, Le, Contains, NotContains, In, NotIn,
  // Bitwise and logical.
  Band, Bor, Bxor, Shl, Shr, And, Or, Xor,
  // Type operators.
  Is, IsNot, As,
  // Unary only: `!` and `-not` are both Not; `,` wraps its operand.
  Not, Bnot, Comma,
  // Unary operators that assign their variable operand.
  Increment, Decrement, PostIncrement, PostDecrement,
};

/// Where a spelling parses as an infix operator, loosest binding first.
enum class OpClass : std::uint8_t {
  None,  ///< not infix (prefix or postfix only)
  Logical,
  Bitwise,
  Comparison,
  Format,
  Range,
  Comma,
  Additive,
  Multiplicative,
  Assignment,
};

/// One row of the table.
struct OperatorInfo {
  std::string_view spelling;  ///< canonical: lowercase, dash included
  Op op;
  OpClass binary;       ///< precedence class as an infix operator
  bool unary;           ///< also a prefix operator
  bool case_sensitive;  ///< a `-c…` variant
};

/// Every row. Postfix `++` / `--` have their own rows (spelled `++_post`
/// and `--_post`), which the lexer never produces.
std::span<const OperatorInfo> operator_table();

/// The row of a canonical spelling (as the lexer emits operator tokens),
/// or null.
const OperatorInfo* find_operator(std::string_view spelling);

/// The row of a named operator given without its dash (`eq`, `CGT`,
/// `bxor`; case-insensitive), or null.
const OperatorInfo* find_named_operator(std::string_view word);

/// The spelling of `op`'s case-insensitive row (`-eq` for Eq, `+` for
/// Add), for diagnostics.
std::string_view spelling(Op op);

/// True for `++` / `--` in either position: they assign their operand.
constexpr bool is_increment(Op op) {
  return op == Op::Increment || op == Op::Decrement ||
         op == Op::PostIncrement || op == Op::PostDecrement;
}

}  // namespace ps
