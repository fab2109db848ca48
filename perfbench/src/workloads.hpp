// Entry points of the benchmark's modes (see main.cpp).
#pragma once

#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

Result run_sgemm_large(const Args& args, Host& host);
Result run_cgemm_stream(const Args& args, Host& host);
Result run_serve_mixed(const Args& args, Host& host);

/// Closed-loop saturation of the serve_mixed server: prints the
/// completed-requests-per-second capacity the fixed rate derives from.
int run_calibrate(const Args& args);

/// Runs a small plan GEMM, checks the gate accepts it, flips one output
/// word and checks the gate rejects it. Exit code 0 when it does.
int run_selftest();

/// Compares two directories of saved run outputs (see compare.cpp).
int run_compare(const std::string& bench_json, const std::string& dir_a,
                const std::string& dir_b);

}  // namespace perfbench
