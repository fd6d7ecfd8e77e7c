#include "frontends/registry.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "frontends/js_frontend.h"
#include "frontends/ps_frontend.h"

namespace ideobf {

FrontendRegistry& FrontendRegistry::instance() {
  // Leaked singleton: the registry is process-lifetime (engines constructed
  // during static destruction of other TUs must still find it).
  static FrontendRegistry* registry = new FrontendRegistry();
  return *registry;
}

FrontendRegistry::FrontendRegistry() {
  // Built-ins, registration order = sniff tie-break order: the default
  // language is first, so an ambiguous source resolves to PowerShell.
  entries_.emplace_back(
      std::string(kDefaultLanguage),
      [](const Options& /*options*/) { return make_ps_frontend(); });
  entries_.emplace_back(
      "javascript",
      [](const Options& /*options*/) { return make_js_frontend(); });
}

void FrontendRegistry::register_frontend(std::string name, Factory factory) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [existing, slot] : entries_) {
    if (existing == name) {
      slot = std::move(factory);
      return;
    }
  }
  entries_.emplace_back(std::move(name), std::move(factory));
}

bool FrontendRegistry::has(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [existing, factory] : entries_) {
    if (existing == name) return true;
  }
  return false;
}

std::vector<std::string> FrontendRegistry::names() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, factory] : entries_) out.push_back(name);
  return out;
}

std::vector<std::shared_ptr<const LanguageFrontend>>
FrontendRegistry::create_all(const Options& options) const {
  std::vector<std::pair<std::string, Factory>> snapshot;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    snapshot = entries_;
  }
  std::vector<std::shared_ptr<const LanguageFrontend>> out;
  out.reserve(snapshot.size());
  for (const auto& [name, factory] : snapshot) {
    out.push_back(factory(options));
  }
  return out;
}

bool valid_request_language(std::string_view language) {
  return language.empty() || language == kAutoLanguage ||
         FrontendRegistry::instance().has(language);
}

std::string_view sniff_language(std::string_view source) {
  // Front-ends are pure policy, so one default-configured set (no parse
  // cache — sniffing never parses) scores sources for every caller.
  // Snapshot at first use; process-lifetime.
  static const auto* sniffers =
      new std::vector<std::shared_ptr<const LanguageFrontend>>(
          FrontendRegistry::instance().create_all(Options{}));
  const LanguageFrontend* best = nullptr;
  double best_score = -1.0;
  for (const auto& frontend : *sniffers) {
    const double score = frontend->sniff(source);
    // Strictly greater: registration order (default language first) breaks
    // ties, so ambiguous text stays PowerShell.
    if (score > best_score) {
      best = frontend.get();
      best_score = score;
    }
  }
  return best != nullptr ? best->name() : kDefaultLanguage;
}

}  // namespace ideobf
