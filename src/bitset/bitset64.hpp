// Alias kept only for perfbench's traced copy of run_with, which names
// Bitset64; it goes with that copy.  Library code uses Bitset<W>.
#pragma once

#include "bitset/bitset.hpp"

namespace elmo {
using Bitset64 = Bitset<1>;
}  // namespace elmo
