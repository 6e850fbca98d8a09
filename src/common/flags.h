// Minimal --key=value command-line parsing for benchmark harnesses and
// examples. Keeps the bench binaries dependency-free and self-documenting:
// each binary declares its flags up front, an undeclared --flag exits 2
// instead of being silently ignored, and --help lists the declared flags.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <map>
#include <string>
#include <vector>

namespace sphinx {

// One declared flag: its name (without the leading "--") and a one-line
// description for --help, e.g. {"keys", "keys to load (default 1000000)"}.
struct FlagSpec {
  const char* name;
  const char* help;
};

class Flags {
 public:
  Flags(int argc, char** argv, std::initializer_list<FlagSpec> declared)
      : declared_(declared) {
    program_ = argc > 0 ? argv[0] : "";
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        print_help(std::cout);
        std::exit(0);
      }
      if (arg.rfind("--", 0) != 0) {
        std::cerr << program_ << ": unrecognized argument: " << arg << "\n";
        std::exit(2);
      }
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      const std::string name = arg.substr(0, eq);
      if (!is_declared(name)) {
        std::cerr << program_ << ": unknown flag --" << name
                  << " (--help lists the flags)\n";
        std::exit(2);
      }
      values_[name] = eq == std::string::npos ? "true" : arg.substr(eq + 1);
    }
  }

  uint64_t get_u64(const std::string& name, uint64_t def) const {
    const std::string* v = find(name);
    if (v == nullptr) return def;
    try {
      size_t pos = 0;
      const uint64_t x = std::stoull(*v, &pos);
      if (pos == v->size()) return x;
    } catch (const std::exception&) {
    }
    die_bad_value(name, *v, "an unsigned integer");
  }

  double get_double(const std::string& name, double def) const {
    const std::string* v = find(name);
    if (v == nullptr) return def;
    try {
      size_t pos = 0;
      const double x = std::stod(*v, &pos);
      if (pos == v->size()) return x;
    } catch (const std::exception&) {
    }
    die_bad_value(name, *v, "a number");
  }

  bool get_bool(const std::string& name, bool def) const {
    const std::string* v = find(name);
    if (v == nullptr) return def;
    return *v == "true" || *v == "1" || *v == "yes";
  }

  std::string get_string(const std::string& name,
                         const std::string& def) const {
    const std::string* v = find(name);
    return v == nullptr ? def : *v;
  }

  bool has(const std::string& name) const { return find(name) != nullptr; }
  const std::string& program() const { return program_; }

  void print_help(std::ostream& os) const {
    os << "usage: " << program_ << " [--flag=value ...]\n";
    for (const FlagSpec& f : declared_) {
      os << "  --" << f.name << "\n      " << f.help << "\n";
    }
  }

 private:
  bool is_declared(const std::string& name) const {
    for (const FlagSpec& f : declared_) {
      if (name == f.name) return true;
    }
    return false;
  }

  // Reading a flag the binary never declared is a bug in the binary: it
  // could never be set on the command line.
  const std::string* find(const std::string& name) const {
    if (!is_declared(name)) {
      std::cerr << program_ << ": flag --" << name
                << " is read but not declared\n";
      std::abort();
    }
    auto it = values_.find(name);
    return it == values_.end() ? nullptr : &it->second;
  }

  [[noreturn]] static void die_bad_value(const std::string& name,
                                         const std::string& value,
                                         const char* expected) {
    std::cerr << "--" << name << ": expected " << expected << ", got '"
              << value << "'\n";
    std::exit(2);
  }

  std::string program_;
  std::vector<FlagSpec> declared_;
  std::map<std::string, std::string> values_;
};

}  // namespace sphinx
