//===- runtime/Value.cpp - Mica runtime values -----------------------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "runtime/Value.h"

using namespace selspec;

bool Value::identicalTo(const Value &RHS) const {
  if (K != RHS.K)
    return false;
  switch (K) {
  case Kind::Nil:
    return true;
  case Kind::Int:
    return I == RHS.I;
  case Kind::Bool:
    return B == RHS.B;
  case Kind::Object:
    return O == RHS.O;
  }
  return false;
}
