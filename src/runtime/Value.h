//===- runtime/Value.h - Mica runtime values -------------------*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tagged runtime values.  Ints, bools and nil are immediate; strings,
/// arrays, class instances and closures are heap objects (Obj).  Capture
/// cells (Cell) also live here because closures hold them: a local that
/// some closure captures is boxed into a shared heap cell so that
/// assignments stay visible to every closure sharing it.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_RUNTIME_VALUE_H
#define SELSPEC_RUNTIME_VALUE_H

#include "hierarchy/Builtins.h"
#include "lang/Ast.h"
#include "support/Ids.h"

#include <memory>
#include <string>
#include <vector>

namespace selspec {

class Obj;

/// A Mica runtime value.
class Value {
public:
  enum class Kind : uint8_t { Nil, Int, Bool, Object };

  Value() : K(Kind::Nil), I(0) {}

  static Value nil() { return Value(); }
  static Value ofInt(int64_t V) {
    Value R;
    R.K = Kind::Int;
    R.I = V;
    return R;
  }
  static Value ofBool(bool V) {
    Value R;
    R.K = Kind::Bool;
    R.B = V;
    return R;
  }
  static Value ofObj(Obj *O) {
    Value R;
    R.K = Kind::Object;
    R.O = O;
    return R;
  }

  Kind kind() const { return K; }
  bool isNil() const { return K == Kind::Nil; }
  bool isInt() const { return K == Kind::Int; }
  bool isBool() const { return K == Kind::Bool; }
  bool isObject() const { return K == Kind::Object; }

  int64_t asInt() const {
    assert(isInt() && "not an int");
    return I;
  }
  bool asBool() const {
    assert(isBool() && "not a bool");
    return B;
  }
  Obj *asObject() const {
    assert(isObject() && "not an object");
    return O;
  }

  /// The dynamic class of the value (builtin class for immediates).
  /// Inline: every dispatch gathers it per argument, every slot access
  /// per object.
  inline ClassId classOf() const;

  /// Identity / immediate equality (the semantics of the builtin Any ==).
  bool identicalTo(const Value &RHS) const;

private:
  Kind K;
  union {
    int64_t I;
    bool B;
    Obj *O;
  };
};

/// A heap-allocated box for a closure-captured variable.  The declaring
/// frame and every capturing closure share the cell, so assignments by
/// any of them are visible to all (the old Env chain's in-place binding
/// mutation, now paid only for the bindings that actually need it).
struct Cell {
  Value V;
};

/// Cells are shared between frames and closures; shared_ptr keeps a cell
/// alive for exactly as long as anything can still reach it.
using CellPtr = std::shared_ptr<Cell>;

/// A heap object: class instance, string, array or closure.
class Obj {
public:
  enum class Payload : uint8_t { Instance, Str, Array, Closure };

  /// Class instance with \p NumSlots nil slots.
  Obj(ClassId Class, unsigned NumSlots)
      : Slots(NumSlots), Class(Class), P(Payload::Instance) {}

  /// String.
  explicit Obj(std::string S)
      : Str(std::move(S)), Class(builtin::String), P(Payload::Str) {}

  /// Array of \p N nil elements.
  explicit Obj(size_t N)
      : Slots(N), Class(builtin::Array), P(Payload::Array) {}

  /// Closure over \p Lit with captured cells and home activation.
  Obj(const ClosureLitExpr *Lit, std::vector<CellPtr> Captured,
      uint64_t HomeActivation)
      : Lit(Lit), Captured(std::move(Captured)),
        HomeActivation(HomeActivation), Class(builtin::Closure),
        P(Payload::Closure) {}

  ClassId getClass() const { return Class; }
  Payload payload() const { return P; }

  /// Instance slots or array elements.
  std::vector<Value> Slots;
  std::string Str;

  // Closure payload: the literal, the captured cells (indexed by the
  // literal's capture list) and the home activation for non-local return.
  const ClosureLitExpr *Lit = nullptr;
  std::vector<CellPtr> Captured;
  uint64_t HomeActivation = 0;
  /// Bytecode tier: compiled body of Lit, stamped at closure creation so
  /// calls skip the module's literal->function map.  Null under the AST
  /// tier (which never reads it).
  struct BcFunction *BcFn = nullptr;

private:
  ClassId Class;
  Payload P;
};

inline ClassId Value::classOf() const {
  switch (K) {
  case Kind::Nil:
    return builtin::Nil;
  case Kind::Int:
    return builtin::Int;
  case Kind::Bool:
    return builtin::Bool;
  case Kind::Object:
    return O->getClass();
  }
  return builtin::Any;
}

} // namespace selspec

#endif // SELSPEC_RUNTIME_VALUE_H
