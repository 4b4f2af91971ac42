//===- fuzz/ProgramGen.cpp - Seeded random Mica program generator ----------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "fuzz/ProgramGen.h"

#include <sstream>
#include <vector>

using namespace selspec;
using namespace selspec::fuzz;

namespace {

/// Shared generation state: the declared names the expression generator
/// can reference (classes, generics, slots, locals in scope).
struct GenState {
  Rng &R;
  std::vector<std::string> Classes;
  std::vector<std::string> Slots;
  /// name, arity
  std::vector<std::pair<std::string, unsigned>> Generics;
  std::vector<std::string> Locals;

  explicit GenState(Rng &R) : R(R) {}

  const std::string &anyClass() { return Classes[R.below(Classes.size())]; }
  const std::string &anySlot() { return Slots[R.below(Slots.size())]; }
};

void genExpr(GenState &S, std::ostringstream &OS, unsigned Depth);

/// An Int operand: usually small, one time in five a boundary value where
/// wraparound, the division-overflow trap and modeled-size saturation
/// live.  INT64_MIN has no literal form, so it appears as
/// neg(INT64_MAX) - 1.
void genInt(GenState &S, std::ostringstream &OS) {
  static const char *Boundary[] = {
      "0",
      "1",
      "neg(1)",
      "9223372036854775807",
      "neg(9223372036854775807)",
      "(neg(9223372036854775807) - 1)",
      "2147483648",
      "neg(2147483648)",
      "4611686018427387904",
      "neg(4611686018427387904)",
  };
  if (S.R.chance(20))
    OS << Boundary[S.R.below(sizeof(Boundary) / sizeof(Boundary[0]))];
  else
    OS << S.R.below(100);
}

/// A receiver-ish expression: something likely (not certain) to be an
/// instance or integer.
void genSimple(GenState &S, std::ostringstream &OS) {
  switch (S.R.below(6)) {
  case 0:
    genInt(S, OS);
    break;
  case 1:
  case 2:
    if (!S.Locals.empty()) {
      OS << S.Locals[S.R.below(S.Locals.size())];
      break;
    }
    [[fallthrough]];
  case 3:
    OS << "new " << S.anyClass();
    break;
  case 4:
    OS << (S.R.chance(50) ? "true" : "false");
    break;
  default:
    OS << "nil";
    break;
  }
}

void genCall(GenState &S, std::ostringstream &OS, unsigned Depth) {
  const auto &[Name, Arity] = S.Generics[S.R.below(S.Generics.size())];
  OS << Name << '(';
  for (unsigned I = 0; I != Arity; ++I) {
    if (I)
      OS << ", ";
    genExpr(S, OS, Depth + 1);
  }
  OS << ')';
}

void genExpr(GenState &S, std::ostringstream &OS, unsigned Depth) {
  if (Depth >= 4) {
    genSimple(S, OS);
    return;
  }
  switch (S.R.below(12)) {
  case 0:
  case 1: {
    static const char *Ops[] = {"+", "-", "*", "/", "%"};
    genSimple(S, OS);
    OS << ' ' << Ops[S.R.below(5)] << ' ';
    genExpr(S, OS, Depth + 1);
    break;
  }
  case 2: {
    static const char *Cmps[] = {"<", "<=", ">", ">=", "==", "!="};
    genSimple(S, OS);
    OS << ' ' << Cmps[S.R.below(6)] << ' ';
    genSimple(S, OS);
    break;
  }
  case 3:
  case 4:
    genCall(S, OS, Depth);
    break;
  case 5: // slot read (may be a type error or undefined slot — fine)
    OS << '(';
    genSimple(S, OS);
    OS << ")." << S.anySlot();
    break;
  case 6: // array round trip (index may be out of bounds — fine)
    OS << "at(array(" << (1 + S.R.below(8)) << "), " << S.R.below(10) << ')';
    break;
  case 7: // closure creation + immediate call
    OS << "fn(a) { a + " << S.R.below(5) << "; }(";
    genSimple(S, OS);
    OS << ')';
    break;
  case 8:
    OS << "\"s" << S.R.below(10) << "\"";
    break;
  case 9:
    OS << "className(";
    genSimple(S, OS);
    OS << ')';
    break;
  default:
    genSimple(S, OS);
    break;
  }
}

void genStmt(GenState &S, std::ostringstream &OS, unsigned Depth,
             const char *Indent) {
  switch (S.R.below(8)) {
  case 0: {
    std::string Name = "v" + std::to_string(S.Locals.size());
    OS << Indent << "let " << Name << " := ";
    genExpr(S, OS, 1);
    OS << ";\n";
    S.Locals.push_back(Name);
    break;
  }
  case 1:
    if (Depth < 2) {
      OS << Indent << "if (";
      genSimple(S, OS);
      OS << " < " << S.R.below(50) << ") {\n";
      genStmt(S, OS, Depth + 1, "      ");
      OS << Indent << "} else {\n";
      genStmt(S, OS, Depth + 1, "      ");
      OS << Indent << "}\n";
      break;
    }
    [[fallthrough]];
  case 2:
    if (Depth < 2) {
      // Bounded counting loop so most programs terminate on their own.
      std::string I = "i" + std::to_string(S.Locals.size());
      OS << Indent << "let " << I << " := 0;\n"
         << Indent << "while (" << I << " < " << (1 + S.R.below(6))
         << ") {\n";
      genStmt(S, OS, Depth + 1, "      ");
      OS << Indent << "  " << I << " := " << I << " + 1;\n"
         << Indent << "}\n";
      break;
    }
    [[fallthrough]];
  case 3:
    OS << Indent << "print(";
    genExpr(S, OS, 2);
    OS << ");\n";
    break;
  case 4:
    if (S.R.chance(20)) {
      OS << Indent << "return ";
      genExpr(S, OS, 2);
      OS << ";\n";
      break;
    }
    [[fallthrough]];
  default:
    OS << Indent;
    genExpr(S, OS, 0);
    OS << ";\n";
    break;
  }
}

} // namespace

std::string selspec::fuzz::generateProgram(uint64_t Seed) {
  Rng R(Seed);
  GenState S(R);
  std::ostringstream OS;

  // Class hierarchy: C0 is a root; later classes inherit an earlier one
  // (sometimes two, exercising multiple inheritance and ambiguity).
  unsigned NumClasses = 2 + R.below(4);
  unsigned NumSlots = 1 + R.below(3);
  for (unsigned I = 0; I != NumSlots; ++I)
    S.Slots.push_back("s" + std::to_string(I));
  for (unsigned I = 0; I != NumClasses; ++I) {
    std::string Name = "C" + std::to_string(I);
    OS << "class " << Name;
    if (I > 0) {
      OS << " isa C" << R.below(I);
      if (I > 1 && R.chance(25))
        OS << ", C" << R.below(I);
    }
    if (R.chance(60)) {
      OS << " { ";
      for (const std::string &Slot : S.Slots)
        OS << "slot " << Slot << "; ";
      OS << "}";
    }
    OS << ";\n";
    S.Classes.push_back(std::move(Name));
  }
  OS << '\n';

  // Generic functions with 1-3 methods each, specialized on random
  // classes (overlapping specializers sometimes dispatch ambiguously —
  // intentionally).
  unsigned NumGenerics = 2 + R.below(3);
  for (unsigned G = 0; G != NumGenerics; ++G) {
    std::string Name = "g" + std::to_string(G);
    unsigned Arity = 1 + R.below(2);
    unsigned NumMethods = 1 + R.below(3);
    S.Generics.emplace_back(Name, Arity);
    for (unsigned M = 0; M != NumMethods; ++M) {
      OS << "method " << Name << '(';
      for (unsigned A = 0; A != Arity; ++A) {
        if (A)
          OS << ", ";
        OS << 'p' << A;
        if (R.chance(70))
          OS << '@' << S.anyClass();
      }
      OS << ") {\n";
      S.Locals.clear();
      for (unsigned A = 0; A != Arity; ++A)
        S.Locals.push_back("p" + std::to_string(A));
      unsigned NumStmts = 1 + R.below(3);
      for (unsigned St = 0; St != NumStmts; ++St)
        genStmt(S, OS, 1, "  ");
      OS << "  " << R.below(100) << ";\n}\n";
    }
  }

  // Occasionally a self-recursive helper (recursion-limit food).
  if (R.chance(30)) {
    OS << "method rec(n@Int) {\n"
       << "  if (n <= 0) { 0; } else { rec(n - 1) + 1; }\n"
       << "}\n";
    S.Generics.emplace_back("rec", 1);
  }

  OS << "\nmethod main(n@Int) {\n";
  S.Locals.clear();
  S.Locals.push_back("n");
  unsigned NumStmts = 2 + R.below(4);
  for (unsigned St = 0; St != NumStmts; ++St)
    genStmt(S, OS, 0, "  ");
  OS << "  0;\n}\n";
  return OS.str();
}

std::string selspec::fuzz::generateHierarchyProgram(const HierarchySpec &Spec) {
  Rng R(Spec.Seed);
  unsigned NumClasses = Spec.Classes < 2 ? 2 : Spec.Classes;
  unsigned Depth = Spec.Depth < 2 ? 2 : Spec.Depth;
  unsigned Fanout = Spec.Fanout < 1 ? 1 : Spec.Fanout;

  // Tree shape, built in DFS preorder: Path holds the ancestors of the
  // next class, so attaching to Path.back() keeps emission order equal
  // to a DFS preorder of the finished tree (and therefore ClassIds equal
  // to the hierarchy's preorder numbers — builtins are leaves declared
  // first, synthesized classes follow in preorder).
  std::vector<unsigned> Parent(NumClasses, 0);
  std::vector<unsigned> SecondParent(NumClasses, UINT32_MAX);
  std::vector<unsigned> NumChildren(NumClasses, 0);
  std::vector<unsigned> Path{0};
  for (unsigned I = 1; I != NumClasses; ++I) {
    while (Path.size() > 1 &&
           (Path.size() >= Depth || NumChildren[Path.back()] >= Fanout ||
            R.chance(100 / Depth)))
      Path.pop_back();
    unsigned P = Path.back();
    Parent[I] = P;
    ++NumChildren[P];
    if (Spec.MultiParentPercent != 0 && I > 1 &&
        R.chance(Spec.MultiParentPercent)) {
      unsigned S = R.below(I);
      if (S != P) {
        SecondParent[I] = S;
        // Diamond edges count as children too: method leaves must have
        // no descendants at all, or two method classes could become
        // ancestor-related and a megamorphic dispatch ambiguous.
        ++NumChildren[S];
      }
    }
    Path.push_back(I);
  }

  // Method-bearing leaves: evenly spaced over the leaf list so the k-way
  // fanout spans the whole tree instead of clustering in one subtree.
  std::vector<unsigned> Leaves;
  for (unsigned I = 1; I != NumClasses; ++I)
    if (NumChildren[I] == 0)
      Leaves.push_back(I);
  unsigned K = Spec.MethodLeaves < 1 ? 1 : Spec.MethodLeaves;
  if (K > Leaves.size())
    K = static_cast<unsigned>(Leaves.size());
  std::vector<unsigned> MethodClasses;
  for (unsigned J = 0; J != K; ++J)
    MethodClasses.push_back(
        Leaves[static_cast<size_t>(J) * Leaves.size() / K]);

  unsigned NumGenerics = Spec.Generics < 1 ? 1 : Spec.Generics;

  std::ostringstream OS;
  for (unsigned I = 0; I != NumClasses; ++I) {
    OS << "class H" << I;
    if (I != 0) {
      OS << " isa H" << Parent[I];
      if (SecondParent[I] != UINT32_MAX)
        OS << ", H" << SecondParent[I];
    }
    if (R.chance(25))
      OS << " { slot f" << R.below(3) << "; }";
    OS << ";\n";
  }
  OS << '\n';

  // One method per (generic, method leaf); bodies return distinct
  // constants so the printed checksum separates misdispatches.
  for (unsigned G = 0; G != NumGenerics; ++G) {
    for (unsigned J = 0; J != K; ++J)
      OS << "method g" << G << "(x@H" << MethodClasses[J] << ") { "
         << (G * K + J + 1) << "; }\n";
    OS << '\n';
  }

  OS << "method fill(objs@Array) {\n";
  for (unsigned J = 0; J != K; ++J)
    OS << "  atPut(objs, " << J << ", new H" << MethodClasses[J] << ");\n";
  OS << "  objs;\n}\n\n";

  // The megamorphic driver: every iteration dispatches each generic on a
  // rotating Array element, so the receiver is statically unknown and
  // dynamically cycles through all K method classes.
  OS << "method spin(objs@Array, n@Int) {\n"
     << "  let acc := 0;\n"
     << "  let i := 0;\n"
     << "  while (i < n) {\n";
  for (unsigned G = 0; G != NumGenerics; ++G)
    OS << "    acc := acc + g" << G << "(at(objs, (i + " << G << ") % " << K
       << "));\n";
  OS << "    i := i + 1;\n"
     << "  }\n"
     << "  acc;\n}\n\n";

  OS << "method main(n@Int) {\n"
     << "  let objs := array(" << K << ");\n"
     << "  fill(objs);\n"
     << "  print(spin(objs, n));\n"
     << "  0;\n}\n";
  return OS.str();
}
