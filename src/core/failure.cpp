#include "core/failure.h"

#include "psast/parser.h"
#include "psinterp/interpreter.h"

namespace ideobf {

std::pair<ps::FailureKind, std::string> classify(const std::exception& e) {
  if (const auto* b = dynamic_cast<const ps::BudgetError*>(&e)) {
    return {b->kind, e.what()};
  }
  if (const auto* l = dynamic_cast<const ps::LimitError*>(&e)) {
    return {l->kind, e.what()};
  }
  if (dynamic_cast<const ps::BlockedCommandError*>(&e) != nullptr) {
    return {ps::FailureKind::BlockedCommand, e.what()};
  }
  if (dynamic_cast<const ps::ParseError*>(&e) != nullptr) {
    return {ps::FailureKind::ParseError, e.what()};
  }
  if (dynamic_cast<const ps::EvalError*>(&e) != nullptr) {
    return {ps::FailureKind::EvalError, e.what()};
  }
  return {ps::FailureKind::Internal, e.what()};  // FaultError included
}

std::pair<ps::FailureKind, std::string> classify_current_exception() {
  try {
    throw;
  } catch (const std::exception& e) {
    return classify(e);
  } catch (...) {
    return {ps::FailureKind::Internal, "non-standard exception"};
  }
}

}  // namespace ideobf
