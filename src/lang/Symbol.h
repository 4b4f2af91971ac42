//===- lang/Symbol.h - Interned identifiers --------------------*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Identifiers (variable, class, generic-function and slot names) are
/// interned into small integer Symbols so that the interpreter and
/// analyses compare names in O(1).
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_LANG_SYMBOL_H
#define SELSPEC_LANG_SYMBOL_H

#include <cassert>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace selspec {

/// An interned identifier.  Value 0 is reserved as "invalid".
class Symbol {
public:
  Symbol() = default;
  explicit Symbol(uint32_t V) : Val(V) {}

  uint32_t value() const { return Val; }
  bool isValid() const { return Val != 0; }

  friend bool operator==(Symbol A, Symbol B) { return A.Val == B.Val; }
  friend bool operator!=(Symbol A, Symbol B) { return A.Val != B.Val; }
  friend bool operator<(Symbol A, Symbol B) { return A.Val < B.Val; }

private:
  uint32_t Val = 0;
};

/// Interns strings to Symbols.  One table is shared by a whole Program.
class SymbolTable {
public:
  SymbolTable() { Names.push_back(""); /* slot 0 = invalid */ }

  Symbol intern(const std::string &Name) {
    auto It = Map.find(Name);
    if (It != Map.end())
      return Symbol(It->second);
    uint32_t Id = static_cast<uint32_t>(Names.size());
    Names.push_back(Name);
    Map.emplace(Name, Id);
    return Symbol(Id);
  }

  /// Returns the existing symbol for \p Name, or an invalid Symbol.
  Symbol find(const std::string &Name) const {
    auto It = Map.find(Name);
    return It == Map.end() ? Symbol() : Symbol(It->second);
  }

  const std::string &name(Symbol S) const {
    assert(S.value() < Names.size() && "unknown symbol");
    return Names[S.value()];
  }

  /// The \p N-th renaming of \p Hint, "$Hint.N": a symbol that cannot
  /// collide with source identifiers (used by the inliner for renamed
  /// locals).  The caller owns the numbering, so renaming the same body
  /// again interns nothing new.
  Symbol gensym(const std::string &Hint, uint32_t N) {
    return intern("$" + Hint + "." + std::to_string(N));
  }

  /// Number of interned symbols, including the invalid slot 0.
  size_t size() const { return Names.size(); }

private:
  std::vector<std::string> Names;
  std::unordered_map<std::string, uint32_t> Map;
};

} // namespace selspec

namespace std {
template <> struct hash<selspec::Symbol> {
  size_t operator()(selspec::Symbol S) const {
    return std::hash<uint32_t>()(S.value());
  }
};
} // namespace std

#endif // SELSPEC_LANG_SYMBOL_H
