#include "rules.h"

#include <algorithm>
#include <array>

namespace chainnet::lint {

namespace {

const std::set<std::string>& guard_classes() {
  static const std::set<std::string> kGuards = {
      "lock_guard", "unique_lock", "shared_lock", "scoped_lock"};
  return kGuards;
}

const std::set<std::string>& manual_lock_methods() {
  static const std::set<std::string> kMethods = {
      "lock",          "unlock",          "try_lock",       "try_lock_for",
      "try_lock_until", "lock_shared",    "unlock_shared",
      "try_lock_shared"};
  return kMethods;
}

const std::set<std::string>& tensor_private_symbols() {
  static const std::set<std::string> kSymbols = {
      "GemmTile", "GemmLadder", "KernelTable", "tile_scratch"};
  return kSymbols;
}

// R7: entry points of the interpreted Algorithm-2 graph walk. Production
// forwards replay compiled plans (gnn/plan.h); the walk survives only as
// the parity reference, so calls are confined to the reference executor
// and the plan compiler.
const std::set<std::string>& interpret_entry_points() {
  static const std::set<std::string> kEntryPoints = {
      "forward_values_interpreted", "run_values_interpreted"};
  return kEntryPoints;
}

/// File stems allowed to touch the interpreted walk: chainnet.{h,cpp}
/// (declares the entry points and hosts the reference executor) and
/// plan_compiler.{h,cpp} (walks topology at compile time).
const std::set<std::string>& interpret_allowed_stems() {
  static const std::set<std::string> kStems = {"chainnet", "plan_compiler"};
  return kStems;
}

const std::set<std::string>& malloc_family() {
  static const std::set<std::string> kFns = {
      "malloc", "calloc", "realloc", "aligned_alloc", "free", "strdup"};
  return kFns;
}

std::string dirname_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string stem_of(const std::string& path) {
  const std::string base = basename_of(path);
  const std::size_t dot = base.find_last_of('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

std::string registry_key(const std::string& path) {
  return dirname_of(path) + "/" + stem_of(path);
}

bool path_has_component(const std::string& path, const std::string& comp) {
  std::size_t start = 0;
  while (start <= path.size()) {
    const std::size_t slash = path.find('/', start);
    const std::size_t end = slash == std::string::npos ? path.size() : slash;
    if (path.compare(start, end - start, comp) == 0) return true;
    if (slash == std::string::npos) break;
    start = slash + 1;
  }
  return false;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// A RAII guard constructed somewhere in the current scope chain, with the
/// (dot-normalized) names it was handed. Both the full chain ("shard.mutex")
/// and the final component ("mutex") are stored, so a GUARDED_BY(mutex)
/// annotation matches a guard on any object's `mutex` field.
struct GuardScope {
  int depth = 0;
  std::set<std::string> names;
};

/// Collects the argument identifiers of a guard construction, normalizing
/// member chains: `this->mu_` -> "mu_", `shard->mutex` -> "shard.mutex" plus
/// "mutex". `first` indexes the opening '(' or '{'; returns the index of the
/// matching close (or the last token).
std::size_t collect_guard_args(const std::vector<Token>& toks,
                               std::size_t first,
                               std::set<std::string>& names) {
  const std::string open = toks[first].text;
  const std::string close = open == "(" ? ")" : "}";
  int depth = 0;
  std::vector<std::string> parts;
  auto flush = [&]() {
    if (parts.empty()) return;
    if (parts.front() == "this") parts.erase(parts.begin());
    if (parts.empty() || parts.front() == "std") {
      parts.clear();
      return;
    }
    std::string full = parts.front();
    for (std::size_t p = 1; p < parts.size(); ++p) full += "." + parts[p];
    names.insert(full);
    names.insert(parts.back());
    parts.clear();
  };
  std::size_t i = first;
  for (; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == open || (open == "(" && t.text == "{")) {
        ++depth;
        continue;
      }
      if (t.text == close || (open == "(" && t.text == "}")) {
        if (--depth == 0) break;
        continue;
      }
      if (t.text == "." || t.text == "->" || t.text == "::") continue;
      flush();
      continue;
    }
    if (t.kind == TokKind::kIdentifier) {
      parts.push_back(t.text);
    }
  }
  flush();
  return i;
}

/// Skips a balanced template-argument list starting at `i` (which must index
/// '<'). Returns the index one past the closing '>'. Treats '>>' as two
/// closes (C++11 semantics).
std::size_t skip_angles(const std::vector<Token>& toks, std::size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == "<") {
      ++depth;
    } else if (t == ">") {
      if (--depth == 0) return i + 1;
    } else if (t == ">>") {
      depth -= 2;
      if (depth <= 0) return i + 1;
    } else if (t == ";" || t == "{" || t == "}") {
      return i;  // not a template-arg list after all; bail out
    }
  }
  return i;
}

/// Steps backwards over a `ns :: ns :: name` qualification chain ending
/// just before `idx`, returning the index of the token preceding the whole
/// chain (or npos when the chain starts the stream).
std::size_t before_qualifiers(const std::vector<Token>& toks,
                              std::size_t idx) {
  std::size_t p = idx;
  while (p >= 2 && toks[p - 1].text == "::" &&
         toks[p - 2].kind == TokKind::kIdentifier) {
    p -= 2;
  }
  return p == 0 ? std::string::npos : p - 1;
}

}  // namespace

void Linter::add_file(FileLex lex) {
  FileInfo info;
  info.lex = std::move(lex);
  info.in_tensor = path_has_component(info.lex.path, "tensor");
  for (const Comment& c : info.lex.comments) {
    auto& slot = info.comment_by_line[c.line];
    if (!slot.empty()) slot += ' ';
    slot += c.text;
    if (c.text.find("LINT:counters") != std::string::npos) {
      info.tag_counters = true;
    }
    if (c.text.find("LINT:allocator") != std::string::npos) {
      info.tag_allocator = true;
    }
  }
  register_annotations(info);
  files_.push_back(std::move(info));
}

void Linter::register_annotations(FileInfo& info) {
  const std::vector<Token>& toks = info.lex.tokens;
  for (const Comment& c : info.lex.comments) {
    const std::size_t at = c.text.find("GUARDED_BY(");
    if (at == std::string::npos) continue;
    const std::size_t open = at + std::string("GUARDED_BY").size();
    const std::size_t close = c.text.find(')', open);
    if (close == std::string::npos) continue;
    std::string mutex = c.text.substr(open + 1, close - open - 1);
    if (mutex.empty()) continue;
    // The annotated declaration is on the comment's own line (trailing
    // comment) or, for a comment on its own line, the line below.
    for (const int line : {c.line, c.line + 1}) {
      std::string member;
      bool saw_tokens = false;
      for (const Token& t : toks) {
        if (t.line < line) continue;
        if (t.line > line) break;
        saw_tokens = true;
        if (t.kind == TokKind::kIdentifier) {
          member = t.text;
        } else if (t.text == "=" || t.text == "{" || t.text == ";") {
          break;  // past the declarator
        }
      }
      if (!saw_tokens) continue;
      if (!member.empty()) {
        registry_[registry_key(info.lex.path)].push_back({member, mutex});
        info.annotation_lines.insert(line);
      }
      break;
    }
  }
}

bool Linter::waived(const FileInfo& info, int line, const std::string& kind) {
  // A waiver covers the line it ends on and the line directly below, and
  // may wrap: the comment on `line` is joined with the contiguous run of
  // commented lines above it before searching.
  std::vector<const std::string*> parts;
  if (const auto it = info.comment_by_line.find(line);
      it != info.comment_by_line.end()) {
    parts.push_back(&it->second);
  }
  for (int l = line - 1; l > 0; --l) {
    const auto it = info.comment_by_line.find(l);
    if (it == info.comment_by_line.end()) break;
    parts.push_back(&it->second);
  }
  std::string joined;
  for (auto rit = parts.rbegin(); rit != parts.rend(); ++rit) {
    joined += **rit;
    joined += ' ';
  }
  const std::string needle = "LINT:" + kind + "(";
  const std::size_t at = joined.find(needle);
  if (at == std::string::npos) return false;
  const std::size_t close = joined.find(')', at + needle.size());
  // A waiver must state a reason; an empty one does not count.
  return close != std::string::npos && close > at + needle.size();
}

void Linter::check_file(const FileInfo& info,
                        std::vector<Finding>& out) const {
  const std::vector<Token>& toks = info.lex.tokens;
  const std::string& path = info.lex.path;

  // Annotations binding in this file: its own plus same-stem siblings'.
  std::map<std::string, std::string> guarded;  // member -> mutex
  const auto reg = registry_.find(registry_key(path));
  if (reg != registry_.end()) {
    for (const Annotation& a : reg->second) guarded[a.member] = a.mutex;
  }

  // R5: private-kernel includes.
  if (!info.in_tensor) {
    for (const Include& inc : info.lex.includes) {
      if (ends_with(inc.target, "kernels_tile.inc") ||
          ends_with(inc.target, "kernels_fma.inc") ||
          ends_with(inc.target, "kernels_dispatch.h")) {
        out.push_back({path, inc.line, "R5-kernel-routing",
                       "'" + inc.target +
                           "' is private to src/tensor/; call the dispatched "
                           "kernels::gemv/gemm API from tensor/kernels.h"});
      }
    }
  }

  int depth = 0;
  std::vector<GuardScope> guards;
  auto holds = [&](const std::string& mutex) {
    return std::any_of(guards.begin(), guards.end(),
                       [&](const GuardScope& g) {
                         return g.names.count(mutex) != 0;
                       });
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "{") {
        ++depth;
      } else if (t.text == "}") {
        depth = std::max(0, depth - 1);
        while (!guards.empty() && guards.back().depth > depth) {
          guards.pop_back();
        }
      }
      continue;
    }
    if (t.kind != TokKind::kIdentifier) continue;
    const std::string& id = t.text;
    const std::string prev = i > 0 ? toks[i - 1].text : std::string();
    const std::string next = i + 1 < toks.size() ? toks[i + 1].text
                                                 : std::string();

    // --- Guard constructions (feeds R2) & guard temporaries (R1). -------
    if (guard_classes().count(id) != 0) {
      std::size_t j = i + 1;
      if (j < toks.size() && toks[j].text == "<") j = skip_angles(toks, j);
      if (j < toks.size() && toks[j].kind == TokKind::kIdentifier &&
          j + 1 < toks.size() &&
          (toks[j + 1].text == "(" || toks[j + 1].text == "{")) {
        // `std::lock_guard<std::mutex> name(mu);`
        GuardScope scope;
        scope.depth = depth;
        i = collect_guard_args(toks, j + 1, scope.names);
        guards.push_back(std::move(scope));
        continue;
      }
      if (j < toks.size() && (toks[j].text == "(" || toks[j].text == "{")) {
        // `std::unique_lock<std::mutex>(mu)` — bound (auto lk = ...) or a
        // self-destructing temporary. Only the binding forms are legal.
        const std::size_t before = before_qualifiers(toks, i);
        const std::string lead =
            before == std::string::npos ? std::string() : toks[before].text;
        GuardScope scope;
        scope.depth = depth;
        i = collect_guard_args(toks, j, scope.names);
        if (lead == "=" || lead == "return" || lead == "(" || lead == ",") {
          guards.push_back(std::move(scope));
        } else {
          out.push_back(
              {path, t.line, "R1-lock-discipline",
               "lock guard temporary is destroyed at the end of the "
               "statement; bind it to a named local"});
        }
        continue;
      }
      continue;
    }

    // --- R1: naked .lock()/.unlock() et al. -----------------------------
    if ((prev == "." || prev == "->") &&
        manual_lock_methods().count(id) != 0 && next == "(") {
      if (!waived(info, t.line, "manual-lock")) {
        out.push_back(
            {path, t.line, "R1-lock-discipline",
             "naked '." + id +
                 "()'; acquire through lock_guard/unique_lock/scoped_lock "
                 "or waive with // LINT:manual-lock(why)"});
      }
      continue;
    }

    // --- R3: relaxed atomics only in counter files. ---------------------
    if (id == "memory_order_relaxed" && !info.tag_counters) {
      out.push_back({path, t.line, "R3-relaxed-atomic",
                     "memory_order_relaxed outside a // LINT:counters file; "
                     "use acquire/release or tag the file"});
      continue;
    }

    // --- R4: Tape::Frame must bind to a named local; no new Tape. -------
    if (id == "Frame" && prev == "::" && i >= 2 &&
        toks[i - 2].text == "Tape" && (next == "(" || next == "{")) {
      out.push_back({path, t.line, "R4-tape-frame",
                     "'Tape::Frame(...)' temporary releases its mark at the "
                     "semicolon and scopes nothing; bind it to a named "
                     "local"});
      continue;
    }
    if (id == "new" && prev != "operator") {
      // Resolve `new [ns::]*Type` to see whether the type is tape-related.
      std::size_t j = i + 1;
      std::string last;
      while (j < toks.size() && toks[j].kind == TokKind::kIdentifier) {
        last = toks[j].text;
        if (j + 1 < toks.size() && toks[j + 1].text == "::") {
          j += 2;
          continue;
        }
        break;
      }
      if (last == "Tape" || last == "Frame") {
        out.push_back({path, t.line, "R4-tape-frame",
                       "'new " + last +
                           "' is forbidden; tapes are per-thread "
                           "(Tape::current()) and frames are stack-owned"});
        continue;
      }
      if (!info.tag_allocator) {
        out.push_back({path, t.line, "R6-allocation",
                       "naked 'new' outside the arena internals; use "
                       "make_unique/make_shared or a tape arena"});
      }
      continue;
    }

    // --- R5: internal kernel symbols are tensor-private. ----------------
    if (!info.in_tensor) {
      if (tensor_private_symbols().count(id) != 0) {
        out.push_back({path, t.line, "R5-kernel-routing",
                       "'" + id +
                           "' bypasses the fixed accumulation-order regime; "
                           "only src/tensor/ may call internal kernels — use "
                           "kernels::gemv/gemm"});
        continue;
      }
      if (id == "detail" && prev == "::" && i >= 2 &&
          toks[i - 2].text == "kernels") {
        out.push_back({path, t.line, "R5-kernel-routing",
                       "'kernels::detail' is private to src/tensor/; use the "
                       "dispatched kernels::gemv/gemm API"});
        continue;
      }
    }

    // --- R6: malloc family. ---------------------------------------------
    if (!info.tag_allocator && malloc_family().count(id) != 0 &&
        next == "(" && prev != "." && prev != "->") {
      out.push_back({path, t.line, "R6-allocation",
                     "'" + id +
                         "()' is forbidden outside the arena internals; use "
                         "standard containers or a tape arena"});
      continue;
    }

    // --- R7: interpreted graph walks are reference/compiler-only. -------
    if (interpret_entry_points().count(id) != 0 && next == "(" &&
        interpret_allowed_stems().count(stem_of(path)) == 0) {
      if (!waived(info, t.line, "interpret")) {
        out.push_back(
            {path, t.line, "R7-plan-discipline",
             "'" + id +
                 "()' walks the graph interpretively; production forwards "
                 "replay compiled plans — call forward_values/"
                 "forward_values_batch, or waive a parity or debug use "
                 "with // LINT:interpret(why)"});
      }
      continue;
    }

    // --- R2: guarded members need a guard in lexical scope. -------------
    const auto g = guarded.find(id);
    if (g != guarded.end() && prev != "::" &&
        info.annotation_lines.count(t.line) == 0) {
      if (!holds(g->second) && !waived(info, t.line, "unguarded")) {
        out.push_back({path, t.line, "R2-guarded-member",
                       "'" + id + "' is GUARDED_BY(" + g->second +
                           ") but no guard on '" + g->second +
                           "' is in scope; take a lock or waive with "
                           "// LINT:unguarded(why)"});
      }
    }
  }
}

std::vector<Finding> Linter::run() {
  std::vector<Finding> findings;
  for (const FileInfo& info : files_) check_file(info, findings);
  std::sort(findings.begin(), findings.end());
  findings.erase(std::unique(findings.begin(), findings.end()),
                 findings.end());
  return findings;
}

}  // namespace chainnet::lint
