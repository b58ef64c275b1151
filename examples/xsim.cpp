// xsim: the standalone retargetable simulator executable — what GENSIM
// "generates" for an architecture (paper §3.3: the executable is specific to
// an architecture but loads any program for it).
//
// Usage:
//   xsim (--arch spam|spam2|srep|tdsp | --isdl FILE) [--asm FILE]
//        [--script FILE | --run] [--dump-isdl] [--no-uop]
//
// --no-uop falls back from the micro-op compiled core to the tree-walking
// interpreter (same results, slower; see src/sim/uop.h). Also switchable at
// run time with the `engine` CLI command.
//
// With --script (or on a terminal with neither --script nor --run), commands
// come from the batch interface (see src/sim/cli.h: run, step, break, x,
// set, disasm, monitor, trace, stats, ...). --run assembles, runs to halt
// and prints statistics. --dump-isdl prints the machine description text.
//
// Examples:
//   ./build/examples/xsim --arch srep --dump-isdl > srep.isdl
//   echo 'li R1, 7
//         halt' > t.s
//   ./build/examples/xsim --arch srep --asm t.s --run
//   ./build/examples/xsim --isdl srep.isdl --asm t.s --script debug.cmds

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "archs/archs.h"
#include "isdl/parser.h"
#include "sim/cli.h"

using namespace isdl;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: xsim (--arch spam|spam2|srep|tdsp | --isdl FILE)\n"
               "            [--asm FILE] [--script FILE | --run] "
               "[--dump-isdl] [--no-uop]\n");
  return 2;
}

std::string readFile(const char* path, bool* ok) {
  std::ifstream f(path);
  *ok = bool(f);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  const char* archName = nullptr;
  const char* isdlPath = nullptr;
  const char* asmPath = nullptr;
  const char* scriptPath = nullptr;
  bool runToHalt = false;
  bool dumpIsdl = false;
  bool noUop = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--arch") && i + 1 < argc) archName = argv[++i];
    else if (!std::strcmp(argv[i], "--isdl") && i + 1 < argc)
      isdlPath = argv[++i];
    else if (!std::strcmp(argv[i], "--asm") && i + 1 < argc)
      asmPath = argv[++i];
    else if (!std::strcmp(argv[i], "--script") && i + 1 < argc)
      scriptPath = argv[++i];
    else if (!std::strcmp(argv[i], "--run")) runToHalt = true;
    else if (!std::strcmp(argv[i], "--dump-isdl")) dumpIsdl = true;
    else if (!std::strcmp(argv[i], "--no-uop")) noUop = true;
    else return usage();
  }

  std::string isdlText;
  if (archName) {
    if (!std::strcmp(archName, "spam")) isdlText = archs::spamIsdl();
    else if (!std::strcmp(archName, "spam2")) isdlText = archs::spam2Isdl();
    else if (!std::strcmp(archName, "srep")) isdlText = archs::srepIsdl();
    else if (!std::strcmp(archName, "tdsp")) isdlText = archs::tdspIsdl();
    else return usage();
  } else if (isdlPath) {
    bool ok;
    isdlText = readFile(isdlPath, &ok);
    if (!ok) {
      std::fprintf(stderr, "cannot open '%s'\n", isdlPath);
      return 1;
    }
  } else {
    return usage();
  }

  if (dumpIsdl) {
    std::fputs(isdlText.c_str(), stdout);
    return 0;
  }

  std::unique_ptr<Machine> machine;
  try {
    machine = parseAndCheckIsdl(isdlText);
  } catch (const IsdlError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  // Building the simulator allocates every storage element, so a legal but
  // huge memory (a 2^32-deep data_memory) can fail here.
  std::unique_ptr<sim::Xsim> built;
  try {
    built = std::make_unique<sim::Xsim>(*machine);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot build the simulator: %s\n", e.what());
    return 1;
  }
  sim::Xsim& xsim = *built;
  if (noUop) xsim.setUopEnabled(false);
  sim::Cli cli(xsim, std::cout);
  std::printf("xsim for machine '%s'\n", machine->name.c_str());

  if (asmPath) {
    bool ok;
    std::string src = readFile(asmPath, &ok);
    if (!ok) {
      std::fprintf(stderr, "cannot open '%s'\n", asmPath);
      return 1;
    }
    sim::Assembler assembler(xsim.signatures());
    DiagnosticEngine diags;
    auto prog = assembler.assemble(src, diags);
    if (!prog) {
      std::fprintf(stderr, "assembly failed:\n%s", diags.dump().c_str());
      return 1;
    }
    std::string err;
    if (!xsim.loadProgram(*prog, &err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 1;
    }
    std::printf("loaded %zu words from %s\n", prog->words.size(), asmPath);
  }

  if (runToHalt) {
    cli.runScript("run\nstats\n");
    return cli.errorCount() ? 1 : 0;
  }
  if (scriptPath) {
    std::ifstream script(scriptPath);
    if (!script) {
      std::fprintf(stderr, "cannot open '%s'\n", scriptPath);
      return 1;
    }
    cli.runScript(script);
    return cli.errorCount() ? 1 : 0;
  }

  // Interactive: read commands from stdin.
  std::string line;
  while (std::printf("xsim> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    if (!cli.execute(line)) break;
  }
  return 0;
}
