// golden_check — byte-identity gate over the built command-line tools.
//
// Runs every case of `cases.txt` (optionally one group of it) through the
// real `uvmsim` / `uvmsim_sweep` binaries and compares an FNV-1a-64 digest
// of each run's stdout, exit status and output files against
// `digests.txt`. Any refactor that changes a printed number, a trace event
// or an exit code fails here.
//
//   golden_check --cases cases.txt --digests digests.txt
//       --bin uvmsim=build/tools/uvmsim --bin uvmsim_sweep=... [--group G]
//   golden_check ... --write     # re-bless: rewrite digests.txt from this build
//                                # (all groups; cmake target golden_bless)
//
// cases.txt: one case per line, `<group> <name> <binary> <args...>`; `#`
// starts a comment. Cases run in a per-group scratch directory. An
// argument `{file}` becomes the bare name `file`; the file is removed
// before the run and digested after it as stream `file`. `{<file}` names a
// file an earlier case of the same group wrote (an input, not digested).
// Cases run in file order.
//
// digests.txt: `<name> <stream> <value>` lines, stream = exit | stdout |
// <file>; hex FNV-1a-64 for streams, decimal for the exit status.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t fnv1a(std::uint64_t h, const char* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(p[i]);
    h *= kFnvPrime;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct Case {
  std::string group;
  std::string name;
  std::string binary;
  std::vector<std::string> args;
};

// (case name, stream) -> value, ordered so --write emits a stable file.
using Digests = std::map<std::pair<std::string, std::string>, std::string>;

std::vector<Case> read_cases(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<Case> cases;
  std::string line;
  while (std::getline(in, line)) {
    if (const auto hash = line.find('#'); hash != std::string::npos)
      line.erase(hash);
    std::istringstream ss(line);
    Case c;
    if (!(ss >> c.group >> c.name >> c.binary)) continue;
    for (std::string a; ss >> a;) c.args.push_back(a);
    cases.push_back(std::move(c));
  }
  return cases;
}

Digests read_digests(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  Digests d;
  std::string name, stream, value;
  while (in >> name >> stream >> value) d[{name, stream}] = value;
  return d;
}

// Run one case; returns its (stream -> value) digests.
std::map<std::string, std::string> run_case(
    const Case& c, const std::map<std::string, std::string>& bins,
    const fs::path& dir) {
  const auto bin = bins.find(c.binary);
  if (bin == bins.end()) throw std::runtime_error("no --bin for " + c.binary);

  // Runs inside `dir` with bare file names, so output that echoes a path
  // (--record-trace) does not depend on where the scratch directory is.
  std::string cmd = "cd '" + dir.string() + "' && '" + bin->second + "'";
  std::vector<std::pair<std::string, fs::path>> outputs;
  for (const std::string& a : c.args) {
    std::string arg = a;
    if (a.size() > 2 && a.front() == '{' && a.back() == '}') {
      const bool input = a[1] == '<';
      const std::string file = a.substr(input ? 2 : 1, a.size() - (input ? 3 : 2));
      const fs::path p = dir / file;
      if (!input) {
        fs::remove(p);
        outputs.emplace_back(file, p);
      }
      arg = file;
    }
    cmd += " '" + arg + "'";
  }
  cmd += " 2>/dev/null";

  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) throw std::runtime_error("cannot run " + cmd);
  std::uint64_t out_hash = kFnvOffset;
  char buf[1 << 16];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;)
    out_hash = fnv1a(out_hash, buf, n);
  const int status = pclose(pipe);

  std::map<std::string, std::string> got;
  got["exit"] = std::to_string(WIFEXITED(status) ? WEXITSTATUS(status)
                                                 : 128 + WTERMSIG(status));
  got["stdout"] = hex(out_hash);
  for (const auto& [file, p] : outputs) {
    std::ifstream f(p, std::ios::binary);
    if (!f) {
      got[file] = "missing";
      continue;
    }
    std::uint64_t h = kFnvOffset;
    while (f.read(buf, sizeof buf) || f.gcount() > 0)
      h = fnv1a(h, buf, static_cast<std::size_t>(f.gcount()));
    got[file] = hex(h);
  }
  return got;
}

int usage() {
  std::cerr << "usage: golden_check --cases FILE --digests FILE "
               "--bin NAME=PATH... [--group G] [--write]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string cases_path, digests_path, group;
  std::map<std::string, std::string> bins;
  bool write = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--cases" && has_value) cases_path = argv[++i];
    else if (a == "--digests" && has_value) digests_path = argv[++i];
    else if (a == "--group" && has_value) group = argv[++i];
    else if (a == "--write") write = true;
    else if (a == "--bin" && has_value) {
      const std::string kv = argv[++i];
      const auto eq = kv.find('=');
      if (eq == std::string::npos) return usage();
      bins[kv.substr(0, eq)] = fs::absolute(kv.substr(eq + 1)).string();
    } else {
      return usage();
    }
  }
  // --write rewrites the whole file, so it always runs every group.
  if (cases_path.empty() || digests_path.empty() || (write && !group.empty()))
    return usage();

  try {
    const std::vector<Case> cases = read_cases(cases_path);
    const Digests expected = write ? Digests{} : read_digests(digests_path);

    const fs::path dir =
        fs::temp_directory_path() /
        ("golden_check." + std::to_string(::getpid()) + "." +
         (group.empty() ? std::string("all") : group));
    fs::create_directories(dir);

    Digests got;
    std::size_t ran = 0, failed = 0;
    for (const Case& c : cases) {
      if (!group.empty() && c.group != group) continue;
      ++ran;
      for (const auto& [stream, value] : run_case(c, bins, dir)) {
        got[{c.name, stream}] = value;
        if (write) continue;
        const auto it = expected.find({c.name, stream});
        const std::string want = it == expected.end() ? "absent" : it->second;
        if (want != value) {
          ++failed;
          std::cerr << "MISMATCH " << c.name << ' ' << stream << ": expected "
                    << want << ", got " << value << "\n";
        }
      }
    }
    fs::remove_all(dir);

    if (ran == 0) {
      std::cerr << "no cases in group '" << group << "'\n";
      return 1;
    }
    if (write) {
      std::ofstream out(digests_path);
      for (const auto& [key, value] : got)
        out << key.first << ' ' << key.second << ' ' << value << "\n";
      std::cout << "wrote " << got.size() << " digests for " << ran
                << " cases to " << digests_path << "\n";
      return 0;
    }
    std::cout << ran << " cases, " << got.size() << " digests, " << failed
              << " mismatches\n";
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "golden_check: " << e.what() << "\n";
    return 2;
  }
}
