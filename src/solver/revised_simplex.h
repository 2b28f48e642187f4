// Internal entry point of the sparse bounded-variable revised simplex.
//
// Callers use solveLp / solveLpWithBounds (solver/simplex.h), which forward
// here. The header exists so the forwarder and white-box tests can name the
// engine directly; everything else about the engine (CSC storage, eta file,
// pricing) is file-local to revised_simplex.cpp. DESIGN.md §17 documents
// the data structures and the warm-start contract.
#pragma once

#include <span>

#include "solver/model.h"
#include "solver/simplex.h"

namespace dsct::lp::detail {

LpResult solveLpRevised(const Model& model, std::span<const double> lower,
                        std::span<const double> upper,
                        const LpOptions& options);

}  // namespace dsct::lp::detail
