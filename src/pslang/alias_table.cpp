#include "pslang/alias_table.h"

#include <algorithm>
#include <cctype>

namespace ps {

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

std::string normalize_type_name(std::string_view name) {
  std::string t = to_lower(name);
  if (t.rfind("system.", 0) == 0) t.erase(0, 7);
  return t;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

AliasTable::AliasTable() {
  // The subset of the Windows PowerShell 5.1 default alias table that is
  // relevant to wild malicious scripts and to the obfuscation techniques in
  // the paper's Table II. Pairs are (alias, canonical).
  entries_ = {
      {"iex", "Invoke-Expression"},
      {"icm", "Invoke-Command"},
      {"iwr", "Invoke-WebRequest"},
      {"irm", "Invoke-RestMethod"},
      {"curl", "Invoke-WebRequest"},
      {"wget", "Invoke-WebRequest"},
      {"%", "ForEach-Object"},
      {"foreach", "ForEach-Object"},
      {"?", "Where-Object"},
      {"where", "Where-Object"},
      {"echo", "Write-Output"},
      {"write", "Write-Output"},
      {"gal", "Get-Alias"},
      {"sal", "Set-Alias"},
      {"gc", "Get-Content"},
      {"cat", "Get-Content"},
      {"type", "Get-Content"},
      {"sc", "Set-Content"},
      {"ac", "Add-Content"},
      {"gci", "Get-ChildItem"},
      {"ls", "Get-ChildItem"},
      {"dir", "Get-ChildItem"},
      {"gi", "Get-Item"},
      {"si", "Set-Item"},
      {"ni", "New-Item"},
      {"ri", "Remove-Item"},
      {"rm", "Remove-Item"},
      {"del", "Remove-Item"},
      {"erase", "Remove-Item"},
      {"cp", "Copy-Item"},
      {"copy", "Copy-Item"},
      {"mv", "Move-Item"},
      {"move", "Move-Item"},
      {"gv", "Get-Variable"},
      {"sv", "Set-Variable"},
      {"nv", "New-Variable"},
      {"gm", "Get-Member"},
      {"gp", "Get-ItemProperty"},
      {"sp", "Set-ItemProperty"},
      {"gps", "Get-Process"},
      {"ps", "Get-Process"},
      {"saps", "Start-Process"},
      {"start", "Start-Process"},
      {"spps", "Stop-Process"},
      {"kill", "Stop-Process"},
      {"sleep", "Start-Sleep"},
      {"gsv", "Get-Service"},
      {"sasv", "Start-Service"},
      {"gwmi", "Get-WmiObject"},
      {"pwd", "Get-Location"},
      {"gl", "Get-Location"},
      {"cd", "Set-Location"},
      {"sl", "Set-Location"},
      {"chdir", "Set-Location"},
      {"select", "Select-Object"},
      {"sort", "Sort-Object"},
      {"measure", "Measure-Object"},
      {"group", "Group-Object"},
      {"tee", "Tee-Object"},
      {"compare", "Compare-Object"},
      {"diff", "Compare-Object"},
      {"sls", "Select-String"},
      {"ft", "Format-Table"},
      {"fl", "Format-List"},
      {"fw", "Format-Wide"},
      {"oh", "Out-Host"},
      {"ogv", "Out-GridView"},
      {"ihy", "Invoke-History"},
      {"r", "Invoke-History"},
      {"h", "Get-History"},
      {"history", "Get-History"},
      {"cls", "Clear-Host"},
      {"clear", "Clear-Host"},
      {"clc", "Clear-Content"},
      {"clv", "Clear-Variable"},
      {"gcm", "Get-Command"},
      {"gdr", "Get-PSDrive"},
      {"gjb", "Get-Job"},
      {"sajb", "Start-Job"},
      {"rjb", "Remove-Job"},
      {"wjb", "Wait-Job"},
      {"rcjb", "Receive-Job"},
      {"nmo", "New-Module"},
      {"ipmo", "Import-Module"},
      {"rmo", "Remove-Module"},
      {"gmo", "Get-Module"},
      {"epcsv", "Export-Csv"},
      {"ipcsv", "Import-Csv"},
      {"sbp", "Set-PSBreakpoint"},
      {"gbp", "Get-PSBreakpoint"},
      {"rbp", "Remove-PSBreakpoint"},
      {"pushd", "Push-Location"},
      {"popd", "Pop-Location"},
      {"rv", "Remove-Variable"},
      {"rd", "Remove-Item"},
      {"md", "mkdir"},
      {"ise", "powershell_ise.exe"},
      {"asnp", "Add-PSSnapin"},
      {"gsnp", "Get-PSSnapin"},
      {"rsnp", "Remove-PSSnapin"},
  };

  // Canonical cmdlets with no alias that is_known_cmdlet must still accept.
  known_cmdlets_ = {
      "invoke-expression", "write-host",       "write-output",
      "new-object",        "start-sleep",      "start-process",
      "invoke-webrequest", "invoke-restmethod", "set-content",
      "get-content",       "out-null",         "out-string",
      "out-file",          "convertto-securestring",
      "convertfrom-securestring",              "get-variable",
      "set-variable",      "restart-computer", "stop-computer",
      "get-random",        "get-date",         "join-path",
      "split-path",        "test-path",        "new-itemproperty",
      "set-itemproperty",  "get-itemproperty", "add-type",
      "invoke-item",       "get-host",         "write-error",
      "write-warning",     "write-verbose",    "write-debug",
      "read-host",         "clear-host",       "foreach-object",
      "where-object",      "select-object",    "sort-object",
      "measure-object",    "powershell",       "powershell.exe",
      "pwsh",              "cmd",              "cmd.exe",
      "mkdir",             "invoke-command",
  };
  for (const auto& [alias, cmdlet] : entries_) {
    by_alias_.emplace(to_lower(alias), cmdlet);  // the first entry wins
    std::string lower_cmdlet = to_lower(cmdlet);
    const auto [it, fresh] = alias_by_cmdlet_.emplace(lower_cmdlet, alias);
    if (!fresh && alias.size() < it->second.size()) it->second = alias;
    known_cmdlets_.insert(std::move(lower_cmdlet));
  }
}

const AliasTable& AliasTable::standard() {
  static const AliasTable table;
  return table;
}

std::optional<std::string> AliasTable::resolve(std::string_view alias) const {
  const auto it = by_alias_.find(to_lower(alias));
  if (it == by_alias_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::string> AliasTable::alias_for(std::string_view cmdlet) const {
  const auto it = alias_by_cmdlet_.find(to_lower(cmdlet));
  if (it == alias_by_cmdlet_.end()) return std::nullopt;
  return it->second;
}

bool AliasTable::is_known_cmdlet(std::string_view name) const {
  return known_cmdlets_.count(to_lower(name)) != 0;
}

}  // namespace ps
