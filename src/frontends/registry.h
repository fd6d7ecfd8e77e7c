#pragma once

/// \file frontends/registry.h
/// The front-end registry: maps the `language` field of `ideobf::Request`
/// to a `LanguageFrontend` factory. PowerShell and JavaScript are built in;
/// the registry is extensible so a new language is one `register_frontend`
/// call away (front-end author checklist: docs/API.md).
///
/// Factories, not instances: a factory sees the engine's configured
/// options, so each InvokeDeobfuscator instantiates its own set at
/// construction.

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "frontends/frontend.h"

namespace ideobf {

class FrontendRegistry {
 public:
  /// Builds one front-end for one engine from the engine's configured
  /// options.
  using Factory = std::function<std::shared_ptr<const LanguageFrontend>(
      const Options& options)>;

  /// The process-wide registry, with the built-in front-ends
  /// ("powershell", "javascript") pre-registered.
  static FrontendRegistry& instance();

  /// Registers (or, for an existing name, replaces) a front-end factory.
  /// Thread-safe; engines constructed afterwards see the new factory.
  void register_frontend(std::string name, Factory factory);

  /// Whether `name` is a registered language (exact, case-sensitive;
  /// "auto" is not a language — callers accepting it check separately).
  [[nodiscard]] bool has(std::string_view name) const;

  /// Registered language names, registration order (default first).
  [[nodiscard]] std::vector<std::string> names() const;

  /// Instantiates every registered front-end for one engine, registration
  /// order. This is what InvokeDeobfuscator calls at construction.
  [[nodiscard]] std::vector<std::shared_ptr<const LanguageFrontend>>
  create_all(const Options& options) const;

 private:
  friend std::string_view resolve_language(std::string_view,
                                           std::string_view);
  using Frontends = std::vector<std::shared_ptr<const LanguageFrontend>>;

  FrontendRegistry();
  /// Default-configured instances of every registered front-end, built at
  /// first use after each registration. Front-ends are pure policy, so one
  /// set scores sources for every caller.
  const Frontends& sniffers() const;

  mutable std::mutex mu_;
  std::vector<std::pair<std::string, Factory>> entries_;
  /// Every sniffer set built so far, newest last. Older sets are kept: the
  /// names resolve_language handed out point into them.
  mutable std::vector<std::unique_ptr<const Frontends>> sniffers_;
  mutable bool sniffers_stale_ = true;
};

/// Whether `language` is acceptable on a request: empty (the default),
/// "auto", or a registered language name.
[[nodiscard]] bool valid_request_language(std::string_view language);

/// Resolves a request's language field to a concrete front-end name: ""
/// -> the default language, "auto" -> the highest sniff score over the
/// registered front-ends (ties to registration order, so the default
/// language wins them), anything else verbatim (even when unregistered —
/// the caller's front-end lookup fails). Deterministic per source text —
/// the same bytes always resolve to the same language, which is what makes
/// "auto" sound as a shared-cache key component. The engine and the
/// server's cache key both resolve through here. A sniffed or defaulted
/// name lives for the process; a verbatim one views `language`.
[[nodiscard]] std::string_view resolve_language(std::string_view language,
                                                std::string_view source);

}  // namespace ideobf
