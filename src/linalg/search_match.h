// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// The library's one ranking rule (DESIGN.md §5): score descending, then
// data index ascending. Every sort and best-match update compares
// through RanksBefore, and every streaming top-k is a kernels::TopKHeap,
// so exact paths match TopKBruteForce bitwise, tie order included. The
// ipslint rule "hand-ranking" rejects a second copy of the rule.

#ifndef IPS_LINALG_SEARCH_MATCH_H_
#define IPS_LINALG_SEARCH_MATCH_H_

#include <cstddef>

namespace ips {

/// A single search answer: data index plus its exact score.
struct SearchMatch {
  std::size_t index = 0;
  double value = 0.0;
};

/// True when `a` ranks strictly before `b`. A stateless closure, not a
/// function, so std::sort and the heap algorithms inline it.
inline constexpr auto RanksBefore = [](const SearchMatch& a,
                                       const SearchMatch& b) {
  if (a.value != b.value) return a.value > b.value;
  return a.index < b.index;
};

}  // namespace ips

#endif  // IPS_LINALG_SEARCH_MATCH_H_
