// Alias kept only for perfbench's traced copy of run_with, which names
// DynBitset; it goes with that copy.  Library code uses Bitset<W>.
#pragma once

#include "bitset/bitset.hpp"

namespace elmo {
using DynBitset = Bitset<2>;
}  // namespace elmo
