#include "obfuscator/obfuscator.h"

#include <algorithm>
#include <cctype>
#include <map>

#include "analysis/randomness.h"
#include "pslang/alias_table.h"
#include "pslang/lexer.h"
#include "psast/parser.h"
#include "psinterp/aes.h"
#include "psinterp/deflate.h"
#include "psinterp/encodings.h"

namespace ideobf {

using ps::QuoteKind;
using ps::Token;
using ps::TokenType;


namespace {

std::string quote_single(std::string_view content) {
  std::string out = "'";
  for (char c : content) {
    if (c == '\'') out += "''";
    else out.push_back(c);
  }
  out += "'";
  return out;
}

bool word_like(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isalpha(static_cast<unsigned char>(c)) && c != '-' && c != '.' &&
        c != '_') {
      return false;
    }
  }
  return true;
}

/// Characters that must not directly follow a backtick inside a bareword
/// (they would change meaning as escape sequences).
bool tickable(char c) {
  switch (std::tolower(static_cast<unsigned char>(c))) {
    case 'n': case 't': case 'r': case '0': case 'a': case 'b':
    case 'f': case 'v': case 'e': case 'u':
      return false;
    default:
      return std::isalpha(static_cast<unsigned char>(c)) != 0;
  }
}

/// Replace-technique helpers: `text` with every `target` swapped for
/// `marker`, and the literal left-to-right String.Replace that undoes it.
std::string punch_holes(std::string_view text, char target, std::string_view marker) {
  std::string holed;
  for (char c : text) {
    if (c == target) holed += marker;
    else holed.push_back(c);
  }
  return holed;
}

std::string fill_holes(std::string_view holed, std::string_view marker, char target) {
  std::string out;
  std::size_t pos = 0;
  for (std::size_t hit = holed.find(marker); hit != std::string_view::npos;
       hit = holed.find(marker, pos)) {
    out.append(holed, pos, hit - pos);
    out.push_back(target);
    pos = hit + marker.size();
  }
  out.append(holed, pos, std::string_view::npos);
  return out;
}

/// Bound on marker lengthening; only a text that holds every pad
/// character can need more than one step.
constexpr std::size_t kMaxMarkerPad = 16;

/// The character that lengthens a colliding marker: the first pad
/// character found in neither the text nor the marker, which makes the
/// marker's last character occur in the holed text only where a marker
/// ends, so every match is a punched hole. Cycles through the pads when
/// the text holds them all.
char marker_pad(std::string_view text, std::string_view marker, std::size_t step) {
  static constexpr std::string_view kPads =
      "bcdfghjklmnpqrstvwxzBCDFGHJKLMNPQRSTVWXZ0123456789_~#@!%^&*";
  for (char c : kPads) {
    if (text.find(c) == std::string_view::npos && marker.find(c) == std::string_view::npos) {
      return c;
    }
  }
  return kPads[step % kPads.size()];
}

}  // namespace

Obfuscator::Obfuscator(std::uint64_t seed) : rng_(seed) {}

std::size_t Obfuscator::rand_index(std::size_t n) {
  return n == 0 ? 0 : static_cast<std::size_t>(rng_() % n);
}

bool Obfuscator::coin(double p) {
  return std::uniform_real_distribution<double>(0.0, 1.0)(rng_) < p;
}

std::string Obfuscator::random_identifier(std::size_t min_len, std::size_t max_len) {
  // Consonant-heavy names fail the paper's vowel statistics on purpose.
  static constexpr std::string_view kChars = "bcdfghjklmnpqrstvwxz";
  const std::size_t len = min_len + rand_index(max_len - min_len + 1);
  std::string out;
  for (std::size_t i = 0; i < len; ++i) {
    char c = kChars[rand_index(kChars.size())];
    if (coin(0.3)) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    out.push_back(c);
  }
  return out;
}

// ------------------------------------------------------------ entry point

std::string Obfuscator::apply(Technique t, std::string_view script) {
  std::string out;
  switch (t) {
    case Technique::Ticking:
    case Technique::Whitespacing:
    case Technique::RandomCase:
    case Technique::Alias:
      out = apply_token_technique(t, script);
      break;
    case Technique::RandomName:
      out = apply_random_name(script);
      break;
    case Technique::WhitespaceEncoding:
      out = apply_whitespace_encoding(script);
      break;
    case Technique::SpecialCharEncoding:
      out = apply_specialchar(script);
      break;
    default:
      out = apply_string_technique(t, script);
      break;
  }
  if (out != script && !ps::is_valid_syntax(out)) return std::string(script);
  return out;
}

// ---------------------------------------------------------- L1 techniques

std::string Obfuscator::apply_token_technique(Technique t, std::string_view script) {
  bool ok = true;
  ps::TokenStream tokens = ps::tokenize_lenient(script, ok);
  if (!ok) return std::string(script);

  std::string out(script);
  for (auto it = tokens.rbegin(); it != tokens.rend(); ++it) {
    const Token& tok = *it;
    switch (t) {
      case Technique::Ticking: {
        if (tok.type != TokenType::Command && tok.type != TokenType::Member &&
            !(tok.type == TokenType::CommandArgument && word_like(tok.content))) {
          break;
        }
        if (tok.text.size() < 3 || tok.text.find('`') != std::string::npos) break;
        std::string ticked;
        for (std::size_t i = 0; i < tok.text.size(); ++i) {
          if (i > 0 && i + 1 < tok.text.size() && tickable(tok.text[i]) &&
              coin(0.35)) {
            ticked.push_back('`');
          }
          ticked.push_back(tok.text[i]);
        }
        if (ticked != tok.text) out.replace(tok.start, tok.length, ticked);
        break;
      }
      case Technique::RandomCase: {
        const bool eligible =
            tok.type == TokenType::Command || tok.type == TokenType::Keyword ||
            tok.type == TokenType::Member || tok.type == TokenType::Type ||
            tok.type == TokenType::CommandParameter ||
            (tok.type == TokenType::Operator && tok.text.size() > 2 &&
             tok.text[0] == '-') ||
            (tok.type == TokenType::CommandArgument && word_like(tok.content));
        if (!eligible) break;
        std::string flipped(tok.text);
        for (char& c : flipped) {
          if (!std::isalpha(static_cast<unsigned char>(c))) continue;
          c = coin() ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
                     : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        }
        if (flipped != tok.text) out.replace(tok.start, tok.length, flipped);
        break;
      }
      case Technique::Alias: {
        if (tok.type != TokenType::Command) break;
        if (auto alias = ps::AliasTable::standard().alias_for(tok.content)) {
          out.replace(tok.start, tok.length, *alias);
        }
        break;
      }
      case Technique::Whitespacing: {
        // Widen the gap before this token when one already exists.
        if (tok.start == 0) break;
        const char before = out[tok.start - 1];
        if ((before == ' ' || before == '\t') && coin(0.6)) {
          out.insert(tok.start, std::string(1 + rand_index(5), ' '));
        }
        break;
      }
      default:
        break;
    }
  }
  return out;
}

std::string Obfuscator::apply_random_name(std::string_view script) {
  bool ok = true;
  ps::TokenStream tokens = ps::tokenize_lenient(script, ok);
  if (!ok) return std::string(script);

  // Collect user variables and function names (same surface the renamer
  // restores).
  std::map<std::string, std::string> mapping;  // lowercase -> random
  bool expect_fn = false;
  std::vector<std::size_t> fn_name_indexes;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.type == TokenType::Comment || t.type == TokenType::NewLine ||
        t.type == TokenType::LineContinuation) {
      continue;
    }
    if (expect_fn) {
      expect_fn = false;
      fn_name_indexes.push_back(i);
      const std::string lower = ps::to_lower(t.content);
      if (!mapping.count(lower)) mapping[lower] = random_identifier();
      continue;
    }
    if (t.type == TokenType::Keyword &&
        (t.content == "function" || t.content == "filter")) {
      expect_fn = true;
      continue;
    }
    if (t.type == TokenType::Variable &&
        t.content.find(':') == std::string::npos) {
      const std::string lower = ps::to_lower(t.content);
      static const char* kKeep[] = {"_",    "args", "input", "true", "false",
                                    "null", "pshome", "shellid", "matches",
                                    "executioncontext", "env", "psversiontable"};
      bool keep = false;
      for (const char* k : kKeep) {
        if (lower == k) keep = true;
      }
      if (keep) continue;
      if (!mapping.count(lower)) mapping[lower] = random_identifier();
    }
  }
  if (mapping.empty()) return std::string(script);

  std::string out(script);
  for (std::size_t ri = tokens.size(); ri-- > 0;) {
    const Token& t = tokens[ri];
    const bool fn_name =
        std::find(fn_name_indexes.begin(), fn_name_indexes.end(), ri) !=
        fn_name_indexes.end();
    if (t.type == TokenType::Variable &&
        t.content.find(':') == std::string::npos) {
      auto it = mapping.find(ps::to_lower(t.content));
      if (it != mapping.end()) out.replace(t.start, t.length, "$" + it->second);
      continue;
    }
    if (fn_name || t.type == TokenType::Command ||
        t.type == TokenType::CommandArgument) {
      auto it = mapping.find(ps::to_lower(t.content));
      if (it != mapping.end()) out.replace(t.start, t.length, it->second);
    }
  }
  return out;
}

// ----------------------------------------------------- string techniques

std::string Obfuscator::obfuscate_literal(Technique t, std::string_view content) {
  const std::string text(content);
  switch (t) {
    case Technique::Concat: {
      if (text.size() < 2) return quote_single(text);
      const std::size_t parts = std::min<std::size_t>(2 + rand_index(3), text.size());
      std::vector<std::size_t> cuts;
      for (std::size_t i = 1; i < parts; ++i) {
        cuts.push_back(1 + rand_index(text.size() - 1));
      }
      cuts.push_back(0);
      cuts.push_back(text.size());
      std::sort(cuts.begin(), cuts.end());
      cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
      // Two wild spellings of concatenation: infix '+' chains and
      // [string]::Concat calls.
      const bool use_static = coin(0.25);
      std::string out = use_static ? "([string]::Concat(" : "(";
      for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
        if (i) out += use_static ? "," : "+";
        out += quote_single(text.substr(cuts[i], cuts[i + 1] - cuts[i]));
      }
      out += use_static ? "))" : ")";
      return out;
    }
    case Technique::Reorder: {
      if (text.size() < 2) return quote_single(text);
      const std::size_t parts = std::min<std::size_t>(2 + rand_index(4), text.size());
      std::vector<std::size_t> cuts = {0, text.size()};
      for (std::size_t i = 1; i < parts; ++i) {
        cuts.push_back(1 + rand_index(text.size() - 1));
      }
      std::sort(cuts.begin(), cuts.end());
      cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
      std::vector<std::string> chunks;
      for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
        chunks.push_back(text.substr(cuts[i], cuts[i + 1] - cuts[i]));
      }
      std::vector<std::size_t> order(chunks.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::shuffle(order.begin(), order.end(), rng_);
      // order[k] = original index of the k-th stored chunk; the format
      // string must emit placeholders in original order.
      std::vector<std::size_t> position_of(chunks.size());
      for (std::size_t k = 0; k < order.size(); ++k) position_of[order[k]] = k;
      std::string fmt = "\"";
      for (std::size_t i = 0; i < chunks.size(); ++i) {
        fmt += "{" + std::to_string(position_of[i]) + "}";
      }
      fmt += "\"";
      std::string out = "(" + fmt + " -f ";
      for (std::size_t k = 0; k < order.size(); ++k) {
        if (k) out += ",";
        out += quote_single(chunks[order[k]]);
      }
      out += ")";
      return out;
    }
    case Technique::Replace: {
      if (text.empty()) return quote_single(text);
      // Substitute one character with an improbable marker, restored by a
      // literal .Replace call.
      const char target = text[rand_index(text.size())];
      std::string marker;
      do {
        marker = random_identifier(3, 4);
      } while (text.find(marker) != std::string::npos);
      std::string holed = punch_holes(text, target, marker);
      // Absent from the text, the marker can still form across its
      // neighbours once the holes are punched ('Bs'+'sss' reads 'sss' one
      // character early). Lengthen it without drawing from the RNG until
      // restoring it left to right gives the text back.
      for (std::size_t pad = 0; fill_holes(holed, marker, target) != text; ++pad) {
        if (pad == kMaxMarkerPad) return quote_single(text);
        marker.push_back(marker_pad(text, marker, pad));
        holed = punch_holes(text, target, marker);
      }
      std::string target_literal;
      if (target == '\'') {
        target_literal = "[STRiNg][CHar]39";
      } else {
        target_literal = quote_single(std::string(1, target));
      }
      return "(" + quote_single(holed) + ".Replace(" + quote_single(marker) +
             "," + target_literal + "))";
    }
    case Technique::Reverse: {
      std::string reversed(text.rbegin(), text.rend());
      return "(-join " + quote_single(reversed) + "[-1..-" +
             std::to_string(text.size()) + "])";
    }
    case Technique::AsciiEncoding: {
      std::string nums;
      for (unsigned char c : text) {
        if (!nums.empty()) nums += ",";
        nums += std::to_string(static_cast<int>(c));
      }
      return "(-join ((" + nums + ") | ForEach-Object { [char]$_ }))";
    }
    case Technique::HexEncoding:
    case Technique::OctalEncoding:
    case Technique::BinaryEncoding: {
      const int base = t == Technique::HexEncoding ? 16
                        : t == Technique::OctalEncoding ? 8 : 2;
      std::string nums;
      for (unsigned char c : text) {
        if (!nums.empty()) nums += " ";
        nums += ps::convert_to_string_base(static_cast<int>(c), base);
      }
      return "(-join ('" + nums + "' -split ' ' | ForEach-Object { "
             "[char][Convert]::ToInt32($_," + std::to_string(base) + ") }))";
    }
    case Technique::Base64Encoding: {
      const std::string b64 = ps::base64_encode(
          ps::encoding_get_bytes(ps::TextEncoding::Unicode, text));
      return "([Text.Encoding]::Unicode.GetString([Convert]::FromBase64String(" +
             quote_single(b64) + ")))";
    }
    case Technique::Bxor: {
      const int key = 0x21 + static_cast<int>(rand_index(0x5E));
      std::string nums;
      for (unsigned char c : text) {
        if (!nums.empty()) nums += ",";
        nums += std::to_string(static_cast<int>(c) ^ key);
      }
      return "(-join ('" + nums + "' -split ',' | ForEach-Object { [char]($_ "
             "-bxor 0x" + ps::convert_to_string_base(key, 16) + ") }))";
    }
    case Technique::SpecialCharEncoding: {
      // Listing-4 style: rotating delimiters, split chain, per-char bxor.
      const int key = 0x41 + static_cast<int>(rand_index(0x20));
      static constexpr std::string_view kDelims = "~@}!%|";
      std::string nums;
      for (std::size_t i = 0; i < text.size(); ++i) {
        if (i) nums += kDelims[i % kDelims.size()];
        nums += std::to_string(static_cast<unsigned char>(text[i]) ^ key);
      }
      std::string out = "((" + quote_single(nums);
      for (char d : kDelims) {
        out += std::string(" -split '") + (d == '|' ? "\\|" : std::string(1, d)) +
               "'";
      }
      out += " | ForEach-Object { [char]($_ -bxor '0x" +
             ps::convert_to_string_base(key, 16) + "') }) -join '')";
      return out;
    }
    case Technique::SecureString: {
      ps::ByteVec key(16), iv(16);
      for (auto& b : key) b = static_cast<std::uint8_t>(1 + rand_index(255));
      for (auto& b : iv) b = static_cast<std::uint8_t>(rand_index(256));
      const std::string blob = ps::securestring::protect(text, key, iv);
      std::string key_list;
      for (std::size_t i = 0; i < key.size(); ++i) {
        if (i) key_list += ",";
        key_list += std::to_string(static_cast<int>(key[i]));
      }
      return "([Runtime.InteropServices.Marshal]::PtrToStringAuto("
             "[Runtime.InteropServices.Marshal]::SecureStringToBSTR("
             "(ConvertTo-SecureString " + quote_single(blob) + " -Key (" +
             key_list + ")))))";
    }
    case Technique::Compress: {
      const ps::ByteVec data(text.begin(), text.end());
      const std::string b64 = ps::base64_encode(ps::deflate_compress(data));
      return "((New-Object IO.StreamReader((New-Object "
             "IO.Compression.DeflateStream([IO.MemoryStream][Convert]::"
             "FromBase64String(" + quote_single(b64) + "), "
             "[IO.Compression.CompressionMode]::Decompress)), "
             "[Text.Encoding]::UTF8)).ReadToEnd())";
    }
    case Technique::WhitespaceEncoding: {
      // Handled at whole-script level; as an expression fall back to Concat.
      return obfuscate_literal(Technique::Concat, content);
    }
    default:
      return quote_single(text);
  }
}

std::string Obfuscator::apply_string_technique(Technique t, std::string_view script) {
  bool ok = true;
  ps::TokenStream tokens = ps::tokenize_lenient(script, ok);
  if (!ok) return std::string(script);

  // Pick a random subset of the eligible literals (wild samples rarely
  // encode every string with the same technique), always at least one.
  std::vector<const Token*> eligible;
  for (const Token& tok : tokens) {
    const bool plain_single =
        tok.type == TokenType::String && tok.quote == QuoteKind::Single;
    const bool plain_double = tok.type == TokenType::String &&
                              tok.quote == QuoteKind::Double && !tok.expandable;
    if (!plain_single && !plain_double) continue;
    if (tok.content.empty()) continue;
    if (tok.content.find('\n') != std::string::npos) continue;
    eligible.push_back(&tok);
  }
  if (eligible.empty()) return std::string(script);
  std::vector<const Token*> chosen;
  for (const Token* tok : eligible) {
    if (coin(0.75)) chosen.push_back(tok);
  }
  if (chosen.empty()) chosen.push_back(eligible[rand_index(eligible.size())]);

  std::string out(script);
  for (auto it = chosen.rbegin(); it != chosen.rend(); ++it) {
    const Token& tok = **it;
    const std::string expr = obfuscate_literal(t, tok.content);
    out.replace(tok.start, tok.length, expr);
  }
  return out;
}

// ------------------------------------------------- whole-script wrappers

std::string Obfuscator::apply_whitespace_encoding(std::string_view script) {
  // Each character becomes a run of (code - 31) spaces, runs separated by
  // tabs, decoded by a += loop — deliberately beyond variable tracing
  // (Table II's one empty cell for our tool).
  std::string runs;
  for (unsigned char c : std::string(script)) {
    if (c < 32 || c > 126) {
      if (c == '\n') {
        runs += std::string(96, ' ');  // 127 maps back to newline below
        runs += "\t";
        continue;
      }
      continue;  // drop other non-printables
    }
    runs += std::string(static_cast<std::size_t>(c) - 31, ' ');
    runs += "\t";
  }
  if (!runs.empty()) runs.pop_back();
  const std::string var = random_identifier();
  const std::string acc = random_identifier();
  std::string out;
  out += "$" + var + " = " + quote_single(runs) + "\n";
  out += "$" + acc + " = ''\n";
  out += "foreach ($t in $" + var + " -split \"`t\") { if ($t.Length -eq 96) { $" +
         acc + " += \"`n\" } else { $" + acc + " += [char]($t.Length + 31) } }\n";
  out += "iex $" + acc + "\n";
  return out;
}

std::string Obfuscator::apply_specialchar(std::string_view script) {
  const std::string expr =
      obfuscate_literal(Technique::SpecialCharEncoding, script);
  // Invoked via the $env:ComSpec character-picking trick (Listing 4).
  return expr + " | & ($env:ComSpec[4,24,25] -join '')";
}

std::string Obfuscator::obfuscate_member_calls(std::string_view script) {
  bool ok = true;
  ps::TokenStream tokens = ps::tokenize_lenient(script, ok);
  if (!ok) return std::string(script);

  std::string out(script);
  for (std::size_t ri = tokens.size(); ri-- > 0;) {
    const Token& tok = tokens[ri];
    if (tok.type != TokenType::Member || tok.content.size() < 6) continue;
    // Only rewrite call sites: the member must be followed by '('.
    if (ri + 1 >= tokens.size() || tokens[ri + 1].text != "(") continue;
    const std::string expr = obfuscate_literal(Technique::Concat, tok.content);
    out.replace(tok.start, tok.length, "(" + expr + ")");
  }
  if (out != script && !ps::is_valid_syntax(out)) return std::string(script);
  return out;
}

std::string Obfuscator::wrap_layer(std::string_view script,
                                   Technique string_technique, LayerStyle style) {
  if (style == LayerStyle::EncodedCommand) {
    const std::string b64 = ps::base64_encode(
        ps::encoding_get_bytes(ps::TextEncoding::Unicode, script));
    const char* flags[] = {"-EncodedCommand", "-enc", "-eNc", "-e", "-EnCodEdCom"};
    return std::string("powershell -NoP -NonI ") + flags[rand_index(5)] + " " + b64;
  }
  const std::string expr = obfuscate_literal(string_technique, script);
  if (style == LayerStyle::IexPipe) {
    const char* iex_forms[] = {"IeX", "iex", "Invoke-Expression",
                               "&($env:ComSpec[4,24,25] -join '')"};
    return expr + " | " + iex_forms[rand_index(4)];
  }
  if (coin(0.15)) {
    return "$ExecutionContext.InvokeCommand.InvokeScript(" + expr + ")";
  }
  const char* heads[] = {"iex ", "IEX ", "Invoke-Expression ",
                         ".($PSHome[4]+$PSHome[30]+'x') "};
  return std::string(heads[rand_index(4)]) + expr;
}

}  // namespace ideobf
