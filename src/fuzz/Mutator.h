//===- fuzz/Mutator.h - Seeded byte-level input mutators --------*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic byte-level mutation of arbitrary inputs (Mica sources,
/// serialized profiles) for the crash-proofing stress harness.  Mutations
/// are structure-blind on purpose: the parser, profile loader, and
/// interpreter must survive any byte soup, not just near-valid inputs.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_FUZZ_MUTATOR_H
#define SELSPEC_FUZZ_MUTATOR_H

#include "fuzz/ProgramGen.h"

#include <string>

namespace selspec {
namespace fuzz {

/// Applies \p NumMutations random byte-level mutations (bit flips, byte
/// overwrites, insertions, deletions, chunk duplication, rewriting a digit
/// run to a boundary number, truncation) to a copy of \p Input, driven by
/// \p R.  The result may be any length, including empty.
std::string mutateBytes(const std::string &Input, Rng &R,
                        unsigned NumMutations);

} // namespace fuzz
} // namespace selspec

#endif // SELSPEC_FUZZ_MUTATOR_H
