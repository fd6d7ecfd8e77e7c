#pragma once

/// \file replay.h
/// The traced run's engine layers. Every workload reports them on its own
/// scripts:
///   - a cold `Engine::handle_batch` with a ParseCache the benchmark owns
///     gives the counts (parses, cache hits and evictions, memo hits, piece
///     ladder shares, parallel efficiency);
///   - a span-recorded replay of each PowerShell script through the public
///     phase functions (ps::tokenize, ps::try_parse, token_pass,
///     recovery_pass with a benchmark-owned RecoveryMemo, unwrap_layers,
///     rename_pass, reformat_pass) gives per-layer self times, set against
///     a timed `Engine::handle` of the same script;
///   - the JavaScript goldens through `Engine::handle` and
///     `resolve_language("auto")` over every script give the front-end
///     layers.

#include <string>
#include <vector>

#include "common.h"
#include "ideobf/api.h"

namespace perfbench {

/// Adds every engine-layer per-layer metric to `result`, spending at most
/// about `budget_seconds` on the replay. Writes the spans to `spans_path`.
/// Returns each script's engine time (ms) in the cold batch.
std::vector<double> engine_layer_metrics(const std::vector<Item>& items, unsigned threads,
                          double budget_seconds, const std::string& spans_path,
                          RunResult& result);

/// Mean microseconds per payload of the four wire codec calls
/// (render_request_line + parse_request_line + parse_reply_line +
/// render_response_line) over the given request/reply-line pairs.
double codec_us(const std::vector<ideobf::Request>& requests,
                const std::vector<std::string>& reply_lines);

}  // namespace perfbench
