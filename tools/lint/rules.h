// Rule engine of chainnet_lint. Enforces the concurrency / tape / kernel
// contracts the runtime, serving, and inference subsystems were built on
// (DESIGN.md §11 has the full table and the rationale per rule):
//
//   R1-lock-discipline   mutexes are acquired through RAII guards only;
//                        naked .lock()/.unlock() needs // LINT:manual-lock(why)
//   R2-guarded-member    members annotated // GUARDED_BY(mu) may only be
//                        touched in a lexical scope that constructed a guard
//                        on mu; // LINT:unguarded(why) waives (e.g. "caller
//                        holds mu")
//   R3-relaxed-atomic    memory_order_relaxed only in files tagged
//                        // LINT:counters
//   R4-tape-frame        Tape::Frame must bind to a named local (a temporary
//                        releases at the semicolon); new Tape is forbidden
//   R5-kernel-routing    internal kernel symbols and kernels_tile.inc /
//                        kernels_fma.inc / kernels_dispatch.h are private
//                        to src/tensor/
//   R6-allocation        naked new / malloc-family calls are forbidden
//                        outside files tagged // LINT:allocator (the arenas)
//   R7-plan-discipline   the interpreted Algorithm-2 entry points
//                        (forward_values_interpreted and friends) may only
//                        be called from chainnet.{h,cpp} (the reference
//                        executor) and plan_compiler.{h,cpp};
//                        // LINT:interpret(why) waives parity/debug uses
//
// The engine is lexical by design: scopes are brace scopes, "holds the
// mutex" means "a guard naming that mutex was constructed in an enclosing
// scope of the same function body". That is exactly the discipline the
// codebase follows, and anything cleverer needs a compiler.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"

namespace chainnet::lint {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;

  bool operator<(const Finding& o) const {
    if (file != o.file) return file < o.file;
    if (line != o.line) return line < o.line;
    if (rule != o.rule) return rule < o.rule;
    return message < o.message;
  }
  bool operator==(const Finding&) const = default;
};

class Linter {
 public:
  /// Pass 1: registers the file — GUARDED_BY annotations, LINT: file tags.
  /// Call for every file before the first check().
  void add_file(FileLex lex);

  /// Pass 2: checks every added file. Findings are sorted and deduplicated.
  std::vector<Finding> run();

 private:
  struct FileInfo {
    FileLex lex;
    bool tag_counters = false;   // LINT:counters
    bool tag_allocator = false;  // LINT:allocator
    bool in_tensor = false;      // a path component is "tensor"
    std::map<int, std::string> comment_by_line;
    std::set<int> annotation_lines;  // lines owning a GUARDED_BY member decl
  };
  struct Annotation {
    std::string member;
    std::string mutex;
  };

  void register_annotations(FileInfo& info);
  void check_file(const FileInfo& info, std::vector<Finding>& out) const;

  /// True when line (or the line above) carries `// LINT:<kind>(reason)`
  /// with a non-empty reason.
  static bool waived(const FileInfo& info, int line, const std::string& kind);

  std::vector<FileInfo> files_;
  /// dir/stem -> annotations; a header's annotations bind in that header
  /// and in its same-stem siblings (widget.h governs widget.cpp).
  std::map<std::string, std::vector<Annotation>> registry_;
};

}  // namespace chainnet::lint
