// The serving layer's name for the shared prepacked-B panel cache
// (gemm/panel_cache.hpp).
#pragma once

#include "gemm/panel_cache.hpp"

namespace m3xu::serve {

using PackCache = gemm::PanelCache;

}  // namespace m3xu::serve
