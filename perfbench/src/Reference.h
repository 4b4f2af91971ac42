//===- perfbench/src/Reference.h - Expected program outputs ----*- C++ -*-===//
///
/// \file
/// The committed expected-output records the benchmark checks every run
/// against: one line per (program, input), produced by the AST tier
/// under Base, the repository's semantic oracle.  File format, one record
/// per line, '#' lines are comments:
///
///   <program> TAB <input> TAB <output, with \\ \n \t escaped>
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>

namespace perfbench {

class References {
public:
  /// Loads \p Path.  Malformed lines are skipped with a warning on
  /// stderr, so the operations that need them fail their check.  False
  /// when the file cannot be read.
  bool load(const std::string &Path);

  /// The expected output of `main(Input)`, if a record exists.
  std::optional<std::string> expected(const std::string &Program,
                                      int64_t Input) const;

  void set(const std::string &Program, int64_t Input, std::string Output);
  /// Writes every record, sorted, under a header naming \p Regenerate;
  /// false on I/O failure.
  bool save(const std::string &Path, const std::string &Regenerate) const;

private:
  std::map<std::pair<std::string, int64_t>, std::string> Records;
};

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_H
