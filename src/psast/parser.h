#pragma once

/// \file parser.h
/// Recursive-descent parser producing the PowerShell AST of ast.h, the
/// substitute for System.Management.Automation.Language.Parser.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "psast/ast.h"

namespace ps {

class ParseError : public std::runtime_error {
 public:
  ParseError(std::string message, std::size_t offset)
      : std::runtime_error(std::move(message)), offset(offset) {}
  std::size_t offset;
};

/// Parses `source` into a script-level ScriptBlockAst owned by a fresh
/// Arena; the returned ParsedScript carries both. Throws ParseError or
/// LexError on malformed input. Parent links are already set on the result.
ParsedScript parse(std::string_view source);

/// Non-throwing variant: returns an empty ParsedScript (== nullptr) on
/// failure, storing a message into `error` when provided. This is the
/// deobfuscator's per-step syntax check.
ParsedScript try_parse(std::string_view source, std::string* error = nullptr);

/// Low-level entry: parses into a caller-supplied arena and returns the raw
/// root. The tree lives exactly as long as `arena`. Throws on malformed
/// input (the partially-built nodes stay in the arena and are finalized
/// with it). The parse table uses this to co-locate the pinned source text
/// and the tree in one arena.
const ScriptBlockAst* parse_into(Arena& arena, std::string_view source);

/// The value of a number token's content ("42", "0x1F", "1.5e+20", "4kb"),
/// exactly as the parser binds it.
Value parse_number_token(std::string_view content);

/// True when `source` parses cleanly.
bool is_valid_syntax(std::string_view source);

/// Instrumentation: process-wide count of full parses performed through
/// parse()/try_parse()/is_valid_syntax(), including the interpreter's
/// internal parses. The pipeline benchmark takes deltas of this counter to
/// measure parses-per-deobfuscation with and without the parse cache.
std::uint64_t parse_call_count();

}  // namespace ps
