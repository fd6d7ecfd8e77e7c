#include "frontends/ps_frontend.h"

#include <cctype>
#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "core/multilayer.h"
#include "core/recovery.h"
#include "core/reformat.h"
#include "core/rename.h"
#include "core/token_pass.h"
#include "psast/parse_cache.h"
#include "psast/parser.h"

namespace ideobf {

namespace {

class PsFrontend final : public LanguageFrontend {
 public:
  explicit PsFrontend(std::shared_ptr<ps::ParseCache> cache)
      : cache_(std::move(cache)) {}

  [[nodiscard]] std::string_view name() const override { return "powershell"; }

  [[nodiscard]] bool syntax_ok(std::string_view text) const override {
    return cache_ != nullptr ? cache_->is_valid(text)
                             : ps::is_valid_syntax(text);
  }

  [[nodiscard]] std::string token_pass(std::string_view text,
                                       TokenPassStats& stats,
                                       TraceSink* trace) const override {
    return ideobf::token_pass(text, &stats, trace);
  }

  [[nodiscard]] std::string recovery_pass(std::string_view text,
                                          const FrontendPhaseContext& ctx,
                                          RecoveryStats& stats,
                                          TraceSink* trace) const override {
    const Options& opts = *ctx.opts;
    RecoveryOptions ro;
    ro.max_steps_per_piece = opts.limits.max_steps_per_piece;
    ro.max_piece_size = opts.limits.max_piece_size;
    ro.extra_blocklist = opts.recovery.extra_blocklist;
    ro.trace_functions = opts.recovery.trace_functions;
    ro.memo = ctx.memo;
    ro.budget = ctx.budget;
    ro.fault = ctx.fault;
    if (cache_ != nullptr) {
      const ps::ParseCache::Result parsed = cache_->get(text);
      return parsed.ast == nullptr
                 ? std::string(text)
                 : ideobf::recovery_pass(text, parsed.ast, ro, &stats, trace,
                                         cache_.get());
    }
    return ideobf::recovery_pass(text, ro, &stats, trace);
  }

  [[nodiscard]] std::string unwrap_layers(std::string_view text,
                                          const FrontendPhaseContext& ctx,
                                          MultilayerStats& stats,
                                          TraceSink* trace,
                                          const Recurse& recurse) const override {
    if (cache_ != nullptr) {
      const ps::ParseCache::Result parsed = cache_->get(text);
      if (parsed.ast == nullptr) return std::string(text);
      return ideobf::unwrap_layers(text, *parsed.ast, recurse, &stats, trace,
                                   cache_.get(), ctx.budget, ctx.fault);
    }
    return ideobf::unwrap_layers(text, recurse, &stats, trace);
  }

  [[nodiscard]] std::string rename_pass(std::string_view text,
                                        RenameStats& stats,
                                        TraceSink* trace) const override {
    return ideobf::rename_pass(text, &stats, trace);
  }

  [[nodiscard]] std::string reformat_pass(
      std::string_view text) const override {
    return ideobf::reformat_pass(text);
  }

  [[nodiscard]] double sniff(std::string_view source) const override {
    // Lexical signals only — sniffing runs before any parse and on
    // arbitrary bytes. Each signal is a PowerShell-distinctive idiom.
    double score = 0.0;
    bool dollar_var = false;    // $name
    bool backtick = false;      // escape/tick character
    bool dash_cmdlet = false;   // Verb-Noun command
    bool dash_operator = false; // -join / -eq / -f style operator
    for (std::size_t i = 0; i < source.size(); ++i) {
      const char c = source[i];
      if (c == '$' && i + 1 < source.size() &&
          (std::isalpha(static_cast<unsigned char>(source[i + 1])) != 0 ||
           source[i + 1] == '_' || source[i + 1] == '{')) {
        dollar_var = true;
      } else if (c == '`') {
        backtick = true;
      } else if (c == '-' && i > 0 && i + 1 < source.size()) {
        const unsigned char prev = static_cast<unsigned char>(source[i - 1]);
        const unsigned char next = static_cast<unsigned char>(source[i + 1]);
        if (std::isalpha(prev) != 0 && std::isupper(next) != 0) {
          dash_cmdlet = true;
        } else if ((prev == ' ' || prev == '(') && std::isalpha(next) != 0) {
          dash_operator = true;
        }
      }
    }
    if (dollar_var) score += 0.45;
    if (dash_cmdlet) score += 0.3;
    if (backtick) score += 0.2;
    if (dash_operator) score += 0.15;
    // The default-language floor: ambiguous text stays PowerShell.
    if (score < 0.05) score = 0.05;
    return score > 1.0 ? 1.0 : score;
  }

 private:
  std::shared_ptr<ps::ParseCache> cache_;
};

}  // namespace

std::shared_ptr<const LanguageFrontend> make_ps_frontend(
    std::shared_ptr<ps::ParseCache> parse_cache) {
  return std::make_shared<const PsFrontend>(std::move(parse_cache));
}

}  // namespace ideobf
