// Runs a test body once per pool width, each time on a fresh execution
// context of that many threads bound as ThreadPool::Current(). A one-thread
// context runs every chunk in order on the caller; a wider one hands the
// chunks to its workers. Checking both covers the split whatever EG_THREADS
// the suite runs at.
#ifndef TESTS_POOL_WIDTHS_H_
#define TESTS_POOL_WIDTHS_H_

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>

#include "src/engine/execution_context.h"

namespace egraph {

template <typename Body>
void AtPoolWidths(std::initializer_list<int> widths, Body&& body) {
  for (const int threads : widths) {
    SCOPED_TRACE("pool width " + std::to_string(threads));
    ExecutionContextOptions options;
    options.num_threads = threads;
    ExecutionContext context(options);
    ExecutionContext::Scope scope(context);
    body();
  }
}

}  // namespace egraph

#endif  // TESTS_POOL_WIDTHS_H_
