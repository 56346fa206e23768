// latdiv-lint — rule catalogue.
//
// Rules run over the pooled FileModels of every analyzed file, so type
// information crosses file boundaries (a member declared in a header is
// recognized when iterated in any .cpp).  Each finding carries a stable
// rule id; `// lint: <rule>-ok` on the finding's line or the line above
// suppresses it.  Suppressions that suppress nothing, or name no rule,
// are themselves findings (`unused-suppression`).
//
// Families and ids:
//   determinism:     wall-clock, unseeded-rng, unordered-iter,
//                    pointer-key, float-accum, mutable-static
//   observer-purity: observer-purity
//   meta:            unused-suppression
#pragma once

#include <vector>

#include "lint_model.hpp"

namespace latdiv::lint {

/// All rule ids, in reporting order.
const std::vector<std::string>& rule_ids();

/// Run every rule over `files` (mutates suppression bookkeeping in place)
/// and return the unsuppressed findings, sorted by file/line/rule.
std::vector<Finding> run_rules(std::vector<FileModel>& files);

}  // namespace latdiv::lint
