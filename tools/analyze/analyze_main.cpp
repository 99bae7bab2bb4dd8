// elmo_analyze CLI entry point.  All logic lives in the analyze/ library,
// which the tests link as well.
#include "analyze/analyzer.hpp"

int main(int argc, char** argv) {
  return elmo_analyze::run_cli(argc, argv);
}
