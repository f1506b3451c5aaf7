// cvcp_bench <entry> [options]: reproduces one paper table or figure, or
// runs one ablation, from the catalog in harness/catalog.cc. Run it
// without an entry to list the entry names.

#include "harness/catalog.h"

int main(int argc, char** argv) {
  using namespace cvcp::bench;
  const BenchCommand command = ParseBenchCommand(argc, argv);
  const BenchEntry& entry = *command.entry;
  PrintBanner(command.options, entry.title, entry.paper_ref);
  PaperBenchContext ctx = MakeContext(command.options);
  const int status = RunBenchEntry(entry, ctx);
  if (status != 0) return status;
  PrintStoreStats(ctx);
  return 0;
}
