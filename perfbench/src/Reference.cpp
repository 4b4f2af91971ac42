//===- perfbench/src/Reference.cpp - Expected program outputs -------------===//

#include "Reference.h"

#include <charconv>
#include <fstream>
#include <iostream>

using namespace perfbench;

namespace {

std::string escape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '\n')
      Out += "\\n";
    else if (C == '\t')
      Out += "\\t";
    else
      Out += C;
  }
  return Out;
}

std::optional<std::string> unescape(const std::string &S) {
  std::string Out;
  for (size_t I = 0; I < S.size(); ++I) {
    if (S[I] != '\\') {
      Out += S[I];
      continue;
    }
    if (++I == S.size())
      return std::nullopt;
    switch (S[I]) {
    case '\\': Out += '\\'; break;
    case 'n': Out += '\n'; break;
    case 't': Out += '\t'; break;
    default: return std::nullopt;
    }
  }
  return Out;
}

} // namespace

bool References::load(const std::string &Path) {
  std::ifstream IS(Path);
  if (!IS)
    return false;
  std::string Line;
  for (unsigned LineNo = 1; std::getline(IS, Line); ++LineNo) {
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t T1 = Line.find('\t');
    size_t T2 = T1 == std::string::npos ? T1 : Line.find('\t', T1 + 1);
    int64_t Input = 0;
    std::optional<std::string> Out;
    if (T2 != std::string::npos) {
      auto [Ptr, Ec] =
          std::from_chars(Line.data() + T1 + 1, Line.data() + T2, Input);
      if (Ec == std::errc() && Ptr == Line.data() + T2)
        Out = unescape(Line.substr(T2 + 1));
    }
    if (!Out || T1 == 0) {
      std::cerr << "perfbench: " << Path << ":" << LineNo
                << ": malformed reference record skipped\n";
      continue;
    }
    Records[{Line.substr(0, T1), Input}] = std::move(*Out);
  }
  return true;
}

std::optional<std::string> References::expected(const std::string &Program,
                                                int64_t Input) const {
  auto It = Records.find({Program, Input});
  if (It == Records.end())
    return std::nullopt;
  return It->second;
}

void References::set(const std::string &Program, int64_t Input,
                     std::string Output) {
  Records[{Program, Input}] = std::move(Output);
}

bool References::save(const std::string &Path,
                      const std::string &Regenerate) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  OS << "# Expected output of main(input) per (program, input), from the "
        "AST tier under Base.\n"
     << "# Regenerate: " << Regenerate << "\n";
  for (const auto &[Key, Output] : Records)
    OS << Key.first << '\t' << Key.second << '\t' << escape(Output) << '\n';
  return static_cast<bool>(OS);
}
