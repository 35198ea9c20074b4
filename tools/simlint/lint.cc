/**
 * @file
 * simlint driver: per-file entry points, the cross-TU repo pass,
 * output formatting (text/JSON) and the suppression ratchet.
 */

#include "lint.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <queue>
#include <set>
#include <sstream>
#include <tuple>

#include "lexer.hh"
#include "rules.hh"
#include "symtab.hh"

namespace fs = std::filesystem;

namespace v3sim::simlint
{

namespace
{

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

auto
findingKey(const Finding &f)
{
    return std::tie(f.file, f.line, f.rule, f.message);
}

void
sortFindings(std::vector<Finding> &v)
{
    std::sort(v.begin(), v.end(),
              [](const Finding &a, const Finding &b) {
                  return findingKey(a) < findingKey(b);
              });
    v.erase(std::unique(v.begin(), v.end(),
                        [](const Finding &a, const Finding &b) {
                            return findingKey(a) == findingKey(b);
                        }),
            v.end());
}

/** Candidate companion-header paths for a .cc/.cpp file. */
std::vector<std::string>
companionHeaders(const std::string &path)
{
    std::vector<std::string> out;
    for (const char *src_ext : {".cc", ".cpp"}) {
        std::string ext = src_ext;
        if (path.size() > ext.size() &&
            path.compare(path.size() - ext.size(), ext.size(),
                         ext) == 0) {
            std::string stem =
                path.substr(0, path.size() - ext.size());
            for (const char *h : {".hh", ".h", ".hpp"})
                out.push_back(stem + h);
            break;
        }
    }
    return out;
}

/** True when scanned path @p path can satisfy include target
 *  @p target ("sim/metrics.hh" matches "src/sim/metrics.hh"). */
bool
includeResolvesTo(const std::string &target, const std::string &path)
{
    if (path == target)
        return true;
    return path.size() > target.size() + 1 &&
           path.compare(path.size() - target.size(), target.size(),
                        target) == 0 &&
           path[path.size() - target.size() - 1] == '/';
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

/** True when a Lookup path is satisfied by some registration. */
bool
lookupResolves(
    const std::string &path,
    const std::vector<std::pair<MetricUse, std::string>> &regs)
{
    for (const auto &[use, file] : regs) {
        switch (use.kind) {
        case MetricUse::Kind::RegisterPath:
            if (use.text == path)
                return true;
            break;
        case MetricUse::Kind::RegisterPrefix:
            if (startsWith(path, use.text))
                return true;
            break;
        case MetricUse::Kind::RegisterSuffix:
            if (endsWith(path, use.text))
                return true;
            break;
        case MetricUse::Kind::RegisterInfix:
            if (path.find(use.text) != std::string::npos)
                return true;
            break;
        case MetricUse::Kind::Lookup:
            break;
        }
    }
    return false;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::map<std::string, long>
suppressionCounts(const RepoReport &report)
{
    std::map<std::string, long> counts;
    for (const Suppression &s : report.suppressions)
        ++counts[s.rule];
    return counts;
}

} // namespace

Input::Input(std::string file)
    : path(std::move(file)),
      scope(fs::path(path).filename().generic_string())
{}

std::vector<Finding>
lintSource(const std::string &path, const std::string &content)
{
    TuAnalysis tu = analyzeTu({path, path}, content);
    runTuRules(tu, nullptr, nullptr);
    sortFindings(tu.findings);
    return tu.findings;
}

std::vector<Finding>
lintFile(const Input &file)
{
    std::string content;
    if (!readFile(file.path, content))
        return {{file.path, 0, "io", "cannot read file"}};

    TuAnalysis tu = analyzeTu(file, content);

    // Companion header: its aliases extend alias resolution, its
    // container members count as tracked in this TU.
    std::map<std::string, ContainerKind> header_aliases;
    std::vector<TrackedVar> header_tracked;
    bool have_header = false;
    for (const std::string &hpath : companionHeaders(file.path)) {
        std::string htext;
        if (!readFile(hpath, htext))
            continue;
        Stripped hs = strip(hpath, htext);
        SymbolTable hsym = buildSymbols(tokenize(hs));
        header_aliases = std::move(hsym.aliases);
        header_tracked = std::move(hsym.tracked);
        have_header = true;
        break;
    }

    runTuRules(tu, have_header ? &header_aliases : nullptr,
               have_header ? &header_tracked : nullptr);
    sortFindings(tu.findings);
    return tu.findings;
}

RepoReport
lintRepo(const std::vector<Input> &files)
{
    RepoReport report;
    report.files = files.size();

    // ---- Pass 1: analyze every TU, build the repo-wide context ---
    std::vector<TuAnalysis> tus;
    tus.reserve(files.size());
    std::map<std::string, size_t> by_path;
    for (const Input &file : files) {
        std::string content;
        if (!readFile(file.path, content)) {
            report.findings.push_back(
                {file.path, 0, "io", "cannot read file"});
            continue;
        }
        by_path.emplace(file.path, tus.size());
        tus.push_back(analyzeTu(file, content));
    }

    std::map<std::string, ContainerKind> global_aliases;
    for (const TuAnalysis &tu : tus)
        for (const auto &[name, kind] : tu.symbols.aliases)
            global_aliases.emplace(name, kind);

    // ---- Pass 2: per-TU rules with repo-wide context -------------
    // Companion-header members are rebuilt with the global aliases so
    // a member declared via an alias from a third TU is still
    // tracked.
    std::map<size_t, std::vector<TrackedVar>> header_tracked;
    auto trackedOf =
        [&](size_t idx) -> const std::vector<TrackedVar> & {
        auto it = header_tracked.find(idx);
        if (it == header_tracked.end()) {
            it = header_tracked
                     .emplace(idx,
                              buildSymbols(tus[idx].tokens,
                                           &global_aliases)
                                  .tracked)
                     .first;
        }
        return it->second;
    };

    for (size_t i = 0; i < tus.size(); ++i) {
        const std::vector<TrackedVar> *extra = nullptr;
        for (const std::string &hpath :
             companionHeaders(tus[i].path)) {
            auto hit = by_path.find(hpath);
            if (hit != by_path.end()) {
                extra = &trackedOf(hit->second);
                break;
            }
        }
        runTuRules(tus[i], &global_aliases, extra);
    }

    // ---- Cross-TU: include graph (banned-header attribution) -----
    std::vector<std::vector<size_t>> includers(tus.size());
    for (size_t i = 0; i < tus.size(); ++i) {
        for (const IncludeDirective &inc : tus[i].includes) {
            if (inc.system)
                continue;
            for (size_t j = 0; j < tus.size(); ++j) {
                if (j != i &&
                    includeResolvesTo(inc.target, tus[j].path))
                    includers[j].push_back(i);
            }
        }
    }
    auto transitiveIncluders = [&](size_t idx) {
        std::set<size_t> seen{idx};
        std::queue<size_t> q;
        q.push(idx);
        while (!q.empty()) {
            size_t cur = q.front();
            q.pop();
            for (size_t up : includers[cur]) {
                if (seen.insert(up).second)
                    q.push(up);
            }
        }
        return seen.size() - 1;
    };
    for (size_t i = 0; i < tus.size(); ++i) {
        size_t pulled = 0;
        bool computed = false;
        for (Finding &f : tus[i].findings) {
            if (f.rule != "banned-header")
                continue;
            if (!computed) {
                pulled = transitiveIncluders(i);
                computed = true;
            }
            if (pulled > 0) {
                f.message += "; pulled in transitively by " +
                             std::to_string(pulled) +
                             " scanned file(s)";
            }
        }
    }

    // ---- Cross-TU: metric index ----------------------------------
    std::vector<std::pair<MetricUse, std::string>> regs;
    for (const TuAnalysis &tu : tus) {
        for (const MetricUse &use : tu.metric_uses) {
            if (use.kind != MetricUse::Kind::Lookup)
                regs.emplace_back(use, tu.path);
        }
    }

    // Duplicate full-path registrations. Tests are excluded: they
    // legitimately re-register the same path on per-test local
    // registries.
    std::map<std::string, std::vector<std::pair<std::string, int>>>
        full_paths;
    for (const TuAnalysis &tu : tus) {
        if (scopeHas(tu.scope, "tests/"))
            continue;
        for (const MetricUse &use : tu.metric_uses) {
            if (use.kind == MetricUse::Kind::RegisterPath)
                full_paths[use.text].emplace_back(tu.path, use.line);
        }
    }
    for (auto &[path, sites] : full_paths) {
        if (sites.size() < 2)
            continue;
        std::sort(sites.begin(), sites.end());
        for (size_t s = 1; s < sites.size(); ++s) {
            const auto &[file, line] = sites[s];
            size_t idx = by_path.at(file);
            if (tus[idx].stripped.allowed("metric-index", line))
                continue;
            tus[idx].findings.push_back(
                {file, line, "metric-index",
                 "metric path \"" + path +
                     "\" already registered at " + sites[0].first +
                     ":" + std::to_string(sites[0].second) +
                     ": duplicate registrations silently share one "
                     "series; derive a distinct path or annotate "
                     "simlint:allow(metric-index: <reason>)"});
        }
    }

    // By-name lookups of metrics never registered anywhere in the
    // scanned tree: a typo reads as a silent zero.
    for (TuAnalysis &tu : tus) {
        for (const MetricUse &use : tu.metric_uses) {
            if (use.kind != MetricUse::Kind::Lookup)
                continue;
            if (lookupResolves(use.text, regs))
                continue;
            if (tu.stripped.allowed("metric-index", use.line))
                continue;
            tu.findings.push_back(
                {tu.path, use.line, "metric-index",
                 "`" + use.call + "(\"" + use.text +
                     "\")` looks up a metric never registered "
                     "anywhere in the scanned tree: a typo here "
                     "reads as a silent zero; fix the path or "
                     "annotate simlint:allow(metric-index: "
                     "<reason>)"});
        }
    }

    // ---- Collect -------------------------------------------------
    for (TuAnalysis &tu : tus) {
        report.findings.insert(report.findings.end(),
                               tu.findings.begin(),
                               tu.findings.end());
        report.suppressions.insert(
            report.suppressions.end(),
            tu.stripped.suppressions.begin(),
            tu.stripped.suppressions.end());
    }
    sortFindings(report.findings);
    std::sort(report.suppressions.begin(),
              report.suppressions.end(),
              [](const Suppression &a, const Suppression &b) {
                  return std::tie(a.file, a.line, a.rule) <
                         std::tie(b.file, b.line, b.rule);
              });
    return report;
}

std::vector<Input>
collectInputs(const std::vector<std::string> &roots,
              std::vector<std::string> *missing)
{
    static const std::set<std::string> kExts = {
        ".cc", ".cpp", ".hh", ".hpp", ".h",
    };
    static const std::set<std::string> kSkipDirs = {
        "fixtures", "build", ".git",
    };
    std::vector<Input> out;
    for (const std::string &root : roots) {
        std::error_code ec;
        if (fs::is_regular_file(root, ec)) {
            out.emplace_back(root);
            continue;
        }
        if (!fs::is_directory(root, ec)) {
            if (missing)
                missing->push_back(root);
            continue;
        }
        // "tests/" names the root "tests"; "." keeps ".".
        fs::path root_path(root);
        if (!root_path.has_filename())
            root_path = root_path.parent_path();
        const std::string root_name =
            root_path.filename().generic_string();
        fs::recursive_directory_iterator it(
            root, fs::directory_options::skip_permission_denied,
            ec);
        fs::recursive_directory_iterator end;
        for (; !ec && it != end; it.increment(ec)) {
            const fs::directory_entry &entry = *it;
            if (entry.is_directory(ec)) {
                if (kSkipDirs.count(
                        entry.path().filename().string()))
                    it.disable_recursion_pending();
                continue;
            }
            if (!entry.is_regular_file(ec))
                continue;
            if (kExts.count(entry.path().extension().string())) {
                out.emplace_back(
                    entry.path().generic_string(),
                    root_name + "/" +
                        entry.path()
                            .lexically_relative(root_path)
                            .generic_string());
            }
        }
    }
    const auto byPath = [](const Input &a, const Input &b) {
        return a.path < b.path;
    };
    std::sort(out.begin(), out.end(), byPath);
    out.erase(std::unique(out.begin(), out.end(),
                          [](const Input &a, const Input &b) {
                              return a.path == b.path;
                          }),
              out.end());
    return out;
}

std::string
formatFinding(const Finding &finding)
{
    return finding.file + ":" + std::to_string(finding.line) +
           ": [" + finding.rule + "] " + finding.message;
}

std::string
reportToJson(const RepoReport &report)
{
    std::ostringstream out;
    out << "{\n  \"schema\": 1,\n  \"files\": " << report.files
        << ",\n  \"findings\": [";
    for (size_t i = 0; i < report.findings.size(); ++i) {
        const Finding &f = report.findings[i];
        out << (i ? ",\n    " : "\n    ") << "{\"file\": \""
            << jsonEscape(f.file) << "\", \"line\": " << f.line
            << ", \"rule\": \"" << jsonEscape(f.rule)
            << "\", \"message\": \"" << jsonEscape(f.message)
            << "\"}";
    }
    out << (report.findings.empty() ? "]" : "\n  ]")
        << ",\n  \"suppressions\": [";
    for (size_t i = 0; i < report.suppressions.size(); ++i) {
        const Suppression &s = report.suppressions[i];
        out << (i ? ",\n    " : "\n    ") << "{\"file\": \""
            << jsonEscape(s.file) << "\", \"line\": " << s.line
            << ", \"rule\": \"" << jsonEscape(s.rule)
            << "\", \"reason\": \"" << jsonEscape(s.reason)
            << "\", \"file_scope\": "
            << (s.file_scope ? "true" : "false") << "}";
    }
    out << (report.suppressions.empty() ? "]" : "\n  ]")
        << ",\n  \"suppression_counts\": {";
    const auto counts = suppressionCounts(report);
    size_t i = 0;
    for (const auto &[rule, n] : counts) {
        out << (i++ ? ", " : "") << "\"" << jsonEscape(rule)
            << "\": " << n;
    }
    out << "},\n  \"total_suppressions\": "
        << report.suppressions.size() << "\n}\n";
    return out.str();
}

std::string
suppressionSummary(const RepoReport &report)
{
    std::ostringstream out;
    out << "total " << report.suppressions.size() << "\n";
    for (const auto &[rule, n] : suppressionCounts(report))
        out << rule << " " << n << "\n";
    return out.str();
}

RatchetResult
checkRatchet(const RepoReport &report,
             const std::string &baseline_text)
{
    RatchetResult res;
    std::map<std::string, long> base;
    bool base_has_total = false;
    long base_total = 0;
    {
        std::istringstream in(baseline_text);
        std::string line;
        int line_no = 0;
        while (std::getline(in, line)) {
            ++line_no;
            size_t hash = line.find('#');
            if (hash != std::string::npos)
                line.resize(hash);
            std::istringstream ls(line);
            std::string rule;
            long n = -1;
            if (!(ls >> rule))
                continue; // blank / comment-only line
            if (!(ls >> n) || n < 0) {
                res.ok = false;
                res.detail = "malformed baseline line " +
                             std::to_string(line_no) + ": \"" +
                             line + "\" (want \"<rule> <count>\")";
                return res;
            }
            if (rule == "total") {
                base_has_total = true;
                base_total = n;
            } else {
                base[rule] = n;
            }
        }
    }

    const auto live = suppressionCounts(report);
    const long live_total =
        static_cast<long>(report.suppressions.size());

    std::vector<std::string> breaches;
    std::vector<std::string> notes;
    std::set<std::string> rules;
    for (const auto &[rule, n] : live)
        rules.insert(rule);
    for (const auto &[rule, n] : base)
        rules.insert(rule);
    for (const std::string &rule : rules) {
        auto lit = live.find(rule);
        auto bit = base.find(rule);
        long l = lit == live.end() ? 0 : lit->second;
        long b = bit == base.end() ? 0 : bit->second;
        if (l > b) {
            breaches.push_back(
                rule + ": " + std::to_string(l) +
                " live suppression(s) > baseline " +
                std::to_string(b) +
                " — remove the new allow or bump the baseline "
                "deliberately (with review)");
        } else if (l < b) {
            notes.push_back(rule + ": " + std::to_string(l) +
                            " live < baseline " +
                            std::to_string(b) +
                            " (baseline can be tightened)");
        }
    }
    if (base_has_total && live_total > base_total) {
        breaches.push_back("total: " + std::to_string(live_total) +
                           " live suppression(s) > baseline " +
                           std::to_string(base_total));
    } else if (base_has_total && live_total < base_total) {
        notes.push_back("total: " + std::to_string(live_total) +
                        " live < baseline " +
                        std::to_string(base_total) +
                        " (baseline can be tightened)");
    }

    std::ostringstream detail;
    if (breaches.empty()) {
        detail << "suppression ratchet OK (" << live_total
               << " live suppression(s))";
        res.ok = true;
    } else {
        detail << "suppression ratchet BREACHED:";
        for (const std::string &b : breaches)
            detail << "\n  " << b;
        res.ok = false;
    }
    for (const std::string &n : notes)
        detail << "\n  note: " << n;
    res.detail = detail.str();
    return res;
}

} // namespace v3sim::simlint
