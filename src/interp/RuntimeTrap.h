//===- interp/RuntimeTrap.h - Structured runtime failures ------*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution layer's structured failure model.  Every runtime failure
/// is a RuntimeTrap: a trap kind, the source location of the faulting
/// node, a one-line message and a capped Mica-level backtrace.  Traps are
/// values, not exceptions — the interpreter's control channel carries
/// them out to the caller, tools render them and map each kind to a
/// distinct process exit code.
///
/// The kinds split into three families:
///   - program errors (TypeError..ArithmeticOverflow): the Mica program
///     misbehaved;
///   - resource guards (NodeBudget/RecursionLimit/HeapLimitExceeded):
///     a configurable ResourceLimits bound was hit before the process
///     could be damaged (native stack overflow, OOM, livelock);
///   - violations (BindingViolation, InternalError): the compiler or
///     interpreter itself is wrong; these indicate bugs, not bad input.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_INTERP_RUNTIMETRAP_H
#define SELSPEC_INTERP_RUNTIMETRAP_H

#include "support/SourceLoc.h"

#include <cstdint>
#include <string>
#include <vector>

namespace selspec {

/// What went wrong.  Order is part of the tool interface: exit codes are
/// derived per-kind, so renumbering is a breaking CLI change.
enum class TrapKind : uint8_t {
  None = 0,
  /// A primitive or control construct received a value of the wrong kind.
  TypeError,
  /// Dynamic dispatch found no applicable method ("message not
  /// understood").
  NoApplicableMethod,
  /// Dynamic dispatch found applicable methods but no unique most-specific
  /// one.
  AmbiguousDispatch,
  /// Array access outside [0, size).
  IndexOutOfBounds,
  /// Integer division or modulo by zero.
  DivisionByZero,
  /// Slot access on a class that has no such slot.
  UndefinedSlot,
  /// Closure invoked with the wrong number of arguments.
  ArityMismatch,
  /// The `abort(reason)` primitive ran.
  UserAbort,
  /// INT64_MIN / -1 or INT64_MIN % -1: the one Int division whose
  /// quotient does not fit (`+ - * neg` wrap; DESIGN.md section 7).
  ArithmeticOverflow,
  /// ResourceLimits::MaxNodes evaluated nodes exceeded (infinite loop
  /// guard).
  NodeBudgetExceeded,
  /// ResourceLimits::MaxDepth activations exceeded (guards the native
  /// C++ stack of the tree-walking interpreter).
  RecursionLimitExceeded,
  /// ResourceLimits::MaxObjects live heap objects exceeded (OOM guard).
  HeapLimitExceeded,
  /// The run's CancelToken deadline expired or a cancel was requested
  /// (RunOptions::Cancel; the long-running-service guard).
  DeadlineExceeded,
  /// ResourceLimits::MaxBytes modeled heap bytes exceeded (the byte-level
  /// OOM guard; object counts alone miss a few huge arrays/strings).
  MemoryBudgetExceeded,
  /// A statically-bound site disagreed with real dispatch (only under
  /// RunOptions::ValidateBindings; always a compiler bug).
  BindingViolation,
  /// Broken interpreter invariant; always a bug.
  InternalError,
};

/// Stable lower-case name of \p K ("type-error", "node-budget-exceeded").
const char *trapKindName(TrapKind K);

/// Process exit code micac uses for \p K.  Program errors map to 10..19,
/// resource guards (including deadlines) to 20..29, violations to 70.
/// None maps to 0.
int trapExitCode(TrapKind K);

/// Inverse of trapExitCode: the kind a worker exit code denotes, or None
/// for codes that are not trap codes (0, 1, 2, ...).  Supervisors (micad)
/// use this to classify reaped workers; 70 maps to InternalError.
TrapKind trapKindForExitCode(int ExitCode);

/// Configurable resource guards of one execution.  All three are enforced
/// on cold paths (allocation, activation entry, the per-node budget
/// check), so hot paths pay a single predictable branch each.
struct ResourceLimits {
  /// Abort runs exceeding this many evaluated nodes.
  uint64_t MaxNodes = UINT64_C(4'000'000'000);
  /// Maximum concurrently active Mica calls (methods + closures), which
  /// bounds the interpreter's native recursion.  Native frame sizes vary
  /// ~10x across build modes, so a native-stack headroom backstop in the
  /// Interpreter also traps RecursionLimitExceeded if the C++ stack runs
  /// low before this many activations (e.g. under ASan's large frames).
  uint32_t MaxDepth = 800;
  /// Maximum live heap objects (strings, arrays, instances, closures).
  uint64_t MaxObjects = UINT64_C(16'000'000);
  /// Maximum modeled heap bytes (support/MemoryBudget.h cost function;
  /// fixed constants, so the budget is identical across build modes and
  /// execution tiers).  Checked before each allocation against the bytes
  /// already charged plus the incoming object's modeled size.
  uint64_t MaxBytes = UINT64_C(8'000'000'000);
};

/// One structured runtime failure.
struct RuntimeTrap {
  TrapKind Kind = TrapKind::None;
  /// Location of the faulting AST node (may be invalid for failures with
  /// no corresponding source node, e.g. callGeneric entry errors).
  SourceLoc Loc;
  /// One-line description, without location or backtrace.
  std::string Message;
  /// Mica-level call backtrace, innermost frame first, rendered method
  /// labels ("main(Int)").  Capped at MaxBacktraceFrames by the producer.
  std::vector<std::string> Backtrace;
  /// Frames dropped beyond the cap.
  size_t FramesElided = 0;

  static constexpr size_t MaxBacktraceFrames = 12;

  bool isTrap() const { return Kind != TrapKind::None; }

  void reset() { *this = RuntimeTrap(); }

  /// Multi-line rendering: message (with location when known), then one
  /// "  in <frame>" line per backtrace entry and a "... N more frame(s)"
  /// marker when frames were elided.
  std::string render() const;
};

} // namespace selspec

#endif // SELSPEC_INTERP_RUNTIMETRAP_H
