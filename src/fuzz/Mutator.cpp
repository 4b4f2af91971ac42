//===- fuzz/Mutator.cpp - Seeded byte-level input mutators ----------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Mutator.h"

#include <algorithm>

using namespace selspec;
using namespace selspec::fuzz;

namespace {

/// Replaces the digit run at or after a random position (wrapping to the
/// first run) with a boundary number: the literal, size and count values
/// where overflow and saturation checks sit, some just past the Int range.
void rewriteDigits(std::string &S, Rng &R) {
  static const char *Boundary[] = {
      "0",          "1",
      "2147483647", "2147483648",
      "4294967296", "4611686018427387904",
      "9223372036854775807", "9223372036854775808",
      "18446744073709551615",
  };
  auto IsDigit = [](char Ch) { return Ch >= '0' && Ch <= '9'; };
  size_t Pos = R.below(static_cast<uint32_t>(S.size()));
  size_t Begin = S.size();
  for (size_t I = 0; I != S.size() && Begin == S.size(); ++I)
    if (IsDigit(S[(Pos + I) % S.size()]))
      Begin = (Pos + I) % S.size();
  if (Begin == S.size())
    return; // no digits at all
  while (Begin && IsDigit(S[Begin - 1]))
    --Begin;
  size_t End = Begin;
  while (End != S.size() && IsDigit(S[End]))
    ++End;
  S.replace(Begin, End - Begin,
            Boundary[R.below(sizeof(Boundary) / sizeof(Boundary[0]))]);
}

void mutateOnce(std::string &S, Rng &R) {
  switch (R.below(7)) {
  case 0: { // flip one bit
    if (S.empty())
      return;
    size_t Pos = R.below(static_cast<uint32_t>(S.size()));
    S[Pos] = static_cast<char>(S[Pos] ^ (1 << R.below(8)));
    break;
  }
  case 1: { // overwrite one byte with an arbitrary value
    if (S.empty())
      return;
    size_t Pos = R.below(static_cast<uint32_t>(S.size()));
    S[Pos] = static_cast<char>(R.below(256));
    break;
  }
  case 2: { // insert 1-4 bytes; bias toward printable structure characters
    static const char Interesting[] = "(){};@.,\"0 \n\t\xff\x00=";
    size_t Pos = R.below(static_cast<uint32_t>(S.size() + 1));
    unsigned N = 1 + R.below(4);
    std::string Ins;
    for (unsigned I = 0; I != N; ++I)
      Ins += R.chance(60)
                 ? Interesting[R.below(sizeof(Interesting) - 1)]
                 : static_cast<char>(R.below(256));
    S.insert(Pos, Ins);
    break;
  }
  case 3: { // delete a short run of bytes
    if (S.empty())
      return;
    size_t Pos = R.below(static_cast<uint32_t>(S.size()));
    size_t Len = std::min<size_t>(1 + R.below(8), S.size() - Pos);
    S.erase(Pos, Len);
    break;
  }
  case 4: { // duplicate a chunk elsewhere (repeated decls, doubled arcs)
    if (S.empty())
      return;
    size_t From = R.below(static_cast<uint32_t>(S.size()));
    size_t Len = std::min<size_t>(1 + R.below(32), S.size() - From);
    std::string Chunk = S.substr(From, Len);
    S.insert(R.below(static_cast<uint32_t>(S.size() + 1)), Chunk);
    break;
  }
  case 5: // rewrite a number to a boundary value
    if (!S.empty())
      rewriteDigits(S, R);
    break;
  default: { // truncate (mid-token, mid-record truncation)
    if (S.empty())
      return;
    S.resize(R.below(static_cast<uint32_t>(S.size())));
    break;
  }
  }
}

} // namespace

std::string selspec::fuzz::mutateBytes(const std::string &Input, Rng &R,
                                       unsigned NumMutations) {
  std::string S = Input;
  for (unsigned I = 0; I != NumMutations; ++I)
    mutateOnce(S, R);
  return S;
}
