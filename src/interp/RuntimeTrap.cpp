//===- interp/RuntimeTrap.cpp - Structured runtime failures ----------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "interp/RuntimeTrap.h"

#include <sstream>

using namespace selspec;

const char *selspec::trapKindName(TrapKind K) {
  switch (K) {
  case TrapKind::None:
    return "none";
  case TrapKind::TypeError:
    return "type-error";
  case TrapKind::NoApplicableMethod:
    return "no-applicable-method";
  case TrapKind::AmbiguousDispatch:
    return "ambiguous-dispatch";
  case TrapKind::IndexOutOfBounds:
    return "index-out-of-bounds";
  case TrapKind::DivisionByZero:
    return "division-by-zero";
  case TrapKind::UndefinedSlot:
    return "undefined-slot";
  case TrapKind::ArityMismatch:
    return "arity-mismatch";
  case TrapKind::UserAbort:
    return "user-abort";
  case TrapKind::ArithmeticOverflow:
    return "arithmetic-overflow";
  case TrapKind::NodeBudgetExceeded:
    return "node-budget-exceeded";
  case TrapKind::RecursionLimitExceeded:
    return "recursion-limit-exceeded";
  case TrapKind::HeapLimitExceeded:
    return "heap-limit-exceeded";
  case TrapKind::DeadlineExceeded:
    return "deadline-exceeded";
  case TrapKind::MemoryBudgetExceeded:
    return "memory-budget-exceeded";
  case TrapKind::BindingViolation:
    return "binding-violation";
  case TrapKind::InternalError:
    return "internal-error";
  }
  return "unknown";
}

int selspec::trapExitCode(TrapKind K) {
  switch (K) {
  case TrapKind::None:
    return 0;
  case TrapKind::TypeError:
    return 10;
  case TrapKind::NoApplicableMethod:
    return 11;
  case TrapKind::AmbiguousDispatch:
    return 12;
  case TrapKind::IndexOutOfBounds:
    return 13;
  case TrapKind::DivisionByZero:
    return 14;
  case TrapKind::UndefinedSlot:
    return 15;
  case TrapKind::ArityMismatch:
    return 16;
  case TrapKind::UserAbort:
    return 17;
  case TrapKind::ArithmeticOverflow:
    return 18;
  case TrapKind::NodeBudgetExceeded:
    return 20;
  case TrapKind::RecursionLimitExceeded:
    return 21;
  case TrapKind::HeapLimitExceeded:
    return 22;
  case TrapKind::DeadlineExceeded:
    return 23;
  case TrapKind::MemoryBudgetExceeded:
    return 24;
  case TrapKind::BindingViolation:
  case TrapKind::InternalError:
    return 70;
  }
  return 70;
}

TrapKind selspec::trapKindForExitCode(int ExitCode) {
  switch (ExitCode) {
  case 10: return TrapKind::TypeError;
  case 11: return TrapKind::NoApplicableMethod;
  case 12: return TrapKind::AmbiguousDispatch;
  case 13: return TrapKind::IndexOutOfBounds;
  case 14: return TrapKind::DivisionByZero;
  case 15: return TrapKind::UndefinedSlot;
  case 16: return TrapKind::ArityMismatch;
  case 17: return TrapKind::UserAbort;
  case 18: return TrapKind::ArithmeticOverflow;
  case 20: return TrapKind::NodeBudgetExceeded;
  case 21: return TrapKind::RecursionLimitExceeded;
  case 22: return TrapKind::HeapLimitExceeded;
  case 23: return TrapKind::DeadlineExceeded;
  case 24: return TrapKind::MemoryBudgetExceeded;
  case 70: return TrapKind::InternalError;
  default: return TrapKind::None;
  }
}

std::string RuntimeTrap::render() const {
  std::ostringstream OS;
  OS << Message;
  if (Loc.isValid())
    OS << " (at line " << Loc.Line << ", col " << Loc.Col << ")";
  for (const std::string &Frame : Backtrace)
    OS << "\n  in " << Frame;
  if (FramesElided)
    OS << "\n  ... " << FramesElided << " more frame(s)";
  return OS.str();
}
