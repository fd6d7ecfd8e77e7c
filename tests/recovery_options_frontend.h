#pragma once

// A test front-end: the PowerShell front-end with its recovery pass run
// under adjusted RecoveryOptions (reparse_rewritten, verify_refusals, ...),
// so the whole engine, layers and fixed-point passes included, can serve
// as the reference a test compares the default engine against.

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "core/deobfuscator.h"
#include "core/recovery.h"
#include "frontends/ps_frontend.h"
#include "frontends/registry.h"
#include "psast/parse_cache.h"
#include "psast/parser.h"

namespace ideobf {

class RecoveryOptionsFrontend final : public LanguageFrontend {
 public:
  using Adjust = std::function<void(RecoveryOptions&)>;

  RecoveryOptionsFrontend(std::string name, Adjust adjust)
      : name_(std::move(name)), adjust_(std::move(adjust)) {}

  /// Registers a front-end named `name` that applies `adjust`.
  static void install(const std::string& name, const Adjust& adjust) {
    FrontendRegistry::instance().register_frontend(
        name, [name, adjust](const Options&) {
          return std::make_shared<const RecoveryOptionsFrontend>(name, adjust);
        });
  }

  std::string_view name() const override { return name_; }
  bool syntax_ok(std::string_view text,
                 const FrontendPhaseContext& ctx) const override {
    return ps_->syntax_ok(text, ctx);
  }
  std::string token_pass(std::string_view text, TokenPassStats& stats,
                         TraceSink* trace) const override {
    return ps_->token_pass(text, stats, trace);
  }
  std::string recovery_pass(std::string_view text,
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
    adjust_(ro);
    const ps::ParsedScript parsed = ctx.parse_cache != nullptr
                                        ? ctx.parse_cache->get(text).ast
                                        : ps::try_parse(text);
    if (parsed == nullptr) return std::string(text);
    return ideobf::recovery_pass(text, parsed, ro, &stats, trace,
                                 ctx.parse_cache);
  }
  std::string unwrap_layers(std::string_view text,
                            const FrontendPhaseContext& ctx,
                            MultilayerStats& stats, TraceSink* trace,
                            const Recurse& recurse) const override {
    return ps_->unwrap_layers(text, ctx, stats, trace, recurse);
  }
  std::string rename_pass(std::string_view text, RenameStats& stats,
                          TraceSink* trace) const override {
    return ps_->rename_pass(text, stats, trace);
  }
  std::string reformat_pass(std::string_view text) const override {
    return ps_->reformat_pass(text);
  }
  double sniff(std::string_view) const override { return 0.0; }

 private:
  std::string name_;
  Adjust adjust_;
  std::shared_ptr<const LanguageFrontend> ps_ = make_ps_frontend();
};

}  // namespace ideobf
