#pragma once

/// \file frontends/ps_frontend.h
/// The PowerShell front-end: the original Invoke-Deobfuscation passes
/// (token_pass / recovery_pass / unwrap_layers / rename_pass /
/// reformat_pass) adapted behind the LanguageFrontend interface with zero
/// behavior change. The parse-once plumbing — routing the per-step syntax
/// checks, the recovery AST input, and the multilayer scan through the
/// run's ps::ParseCache (FrontendPhaseContext::parse_cache) — lives here
/// instead of in the core loop, since it is a PowerShell-substrate concern.

#include <memory>

#include "frontends/frontend.h"

namespace ideobf {

/// Builds the PowerShell front-end. Without a parse table in the phase
/// context every step re-parses; the output is identical.
[[nodiscard]] std::shared_ptr<const LanguageFrontend> make_ps_frontend();

}  // namespace ideobf
