// The hermetic tier-1 guard: every file a test writes must live in its own
// per-case directory (testing_util::CaseDir), because ctest runs each case
// as its own process and two cases writing one fixed relative name race
// under `ctest -j`. This scans tests/*.cpp and *.hpp for file output whose
// path is a bare relative string literal: std::ofstream / std::fstream /
// .open / fopen / std::remove / std::filesystem::remove[_all] calls, and
// the CLI's file-writing flags (--record, --trace, --dir, --out,
// --progress, --checkpoint) followed by a literal path. Absolute literals
// (/dev/null, deliberately unwritable paths) are fine.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#ifndef PUSHPULL_TESTS_DIR
#error "PUSHPULL_TESTS_DIR must point at the tests/ directory"
#endif

namespace {

struct Finding {
  std::string where;
  std::string path;
};

/// Bare relative output paths in one source text, as "file:line".
std::vector<Finding> bare_output_paths(const std::string& file,
                                       const std::string& text) {
  // Each pattern captures the literal path argument (group 1).
  static const std::vector<std::regex> kPatterns = {
      std::regex(R"re(\bo?fstream\s*(?:\w+\s*)?[({]\s*"([^"]*)")re"),
      std::regex(R"re(\.open\s*\(\s*"([^"]*)")re"),
      std::regex(R"re(\bfopen\s*\(\s*"([^"]*)")re"),
      std::regex(R"re(\bremove(?:_all)?\s*\(\s*"([^"]*)")re"),
      std::regex(
          R"re(--(?:record|trace|dir|out|progress|checkpoint)[ =]([^\s"]+))re"),
  };
  std::vector<Finding> found;
  std::istringstream in(text);
  std::string line;
  for (std::size_t lineno = 1; std::getline(in, line); ++lineno) {
    const std::size_t first = line.find_first_not_of(" \t");
    if (first != std::string::npos && line.compare(first, 2, "//") == 0) {
      continue;  // prose, not code
    }
    for (const std::regex& pattern : kPatterns) {
      for (auto it = std::sregex_iterator(line.begin(), line.end(), pattern);
           it != std::sregex_iterator(); ++it) {
        const std::string path = (*it)[1].str();
        if (!path.empty() && path.front() != '/') {
          found.push_back({file + ":" + std::to_string(lineno), path});
        }
      }
    }
  }
  return found;
}

TEST(Hermetic, ScannerFlagsEveryBareOutputForm) {
  // Built with a placeholder quote so this file's own text stays clean.
  auto code = [](std::string s) {
    for (char& c : s) {
      if (c == '\'') c = '"';
    }
    return s;
  };
  const std::vector<std::string> bare = {
      code("std::ofstream out('golden.txt');"),
      code("std::ofstream('x.svj', std::ios::binary) << bytes;"),
      code("std::fstream f{'data.bin'};"),
      code("file.open('out.csv');"),
      code("FILE* f = fopen('log.txt', 'w');"),
      code("std::remove('killed.svj');"),
      code("std::filesystem::remove_all('scratch');"),
      code("run('serve --record run.svj');"),
      code("run('replicate --trace=t.jsonl --jobs 2');"),
      code("run('serve --chaos --dir out');"),
  };
  for (const std::string& line : bare) {
    EXPECT_EQ(bare_output_paths("t.cpp", line).size(), 1u) << line;
  }
  const std::vector<std::string> fine = {
      code("std::ofstream out(dir.path('golden.txt'));"),
      code("std::ofstream out(path, std::ios::binary);"),
      code("std::remove(killed.c_str());"),
      code("run(' --trace ' + tmp + ' > /dev/null');"),
      code("run('serve --record /nonexistent/dir/x.svj');"),
      code("run('trace --trace-categories queue');"),
      code("// a comment naming --record run.svj is prose"),
  };
  for (const std::string& line : fine) {
    EXPECT_TRUE(bare_output_paths("t.cpp", line).empty()) << line;
  }
}

TEST(Hermetic, TestsWriteOnlyIntoCaseDirs) {
  std::vector<Finding> found;
  std::size_t scanned = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(PUSHPULL_TESTS_DIR)) {
    const std::filesystem::path& p = entry.path();
    if (p.extension() != ".cpp" && p.extension() != ".hpp") continue;
    if (p.filename() == "test_hermetic.cpp") continue;  // the guard itself
    std::ifstream in(p, std::ios::binary);
    ASSERT_TRUE(in) << p;
    std::ostringstream text;
    text << in.rdbuf();
    const auto hits = bare_output_paths(p.filename().string(), text.str());
    found.insert(found.end(), hits.begin(), hits.end());
    ++scanned;
  }
  EXPECT_GT(scanned, 40u);
  std::string listing;
  for (const Finding& f : found) {
    listing += f.where + ": bare output path \"" + f.path +
               "\" — write under a testing_util::CaseDir instead\n";
  }
  EXPECT_TRUE(found.empty()) << listing;
}

}  // namespace
