#pragma once

/// \file failure.h
/// Maps the exceptions the pipeline can raise onto the governor's
/// structured FailureKind taxonomy (psvalue/budget.h). One mapping used by
/// the deobfuscator's degradation ladder, the batch workers, and the
/// sandbox, so an error is classified identically wherever it surfaces.

#include <exception>
#include <string>
#include <utility>

#include "psvalue/budget.h"

namespace ideobf {

/// Classifies a caught exception without rethrowing it. Returns the kind
/// plus a human-readable detail message.
std::pair<ps::FailureKind, std::string> classify(const std::exception& e);

/// Classifies the exception currently being handled. Must be called from
/// inside a catch block (any kind, including catch(...)). Returns the kind
/// plus a human-readable detail message.
std::pair<ps::FailureKind, std::string> classify_current_exception();

}  // namespace ideobf
