/**
 * @file
 * simlint analysis passes: the per-TU rule set and the exported
 * facts the cross-TU pass (lint.cc) consumes.
 *
 * analyzeTu() is pass 1: strip, tokenize, build the TU-local symbol
 * table, scan includes and metric registrations/lookups. It emits no
 * findings. runTuRules() is pass 2: with the repo-wide alias table
 * and companion-header declarations in hand, it runs every per-TU
 * rule and appends findings to the analysis. The cross-TU rules
 * (metric-index, include-graph attribution) live in lint.cc on top
 * of the exported facts.
 */

#ifndef V3SIM_TOOLS_SIMLINT_RULES_HH
#define V3SIM_TOOLS_SIMLINT_RULES_HH

#include <string>
#include <vector>

#include "lexer.hh"
#include "lint.hh"
#include "symtab.hh"

namespace v3sim::simlint
{

/** One metric-path fact exported for the cross-TU metric index. */
struct MetricUse
{
    enum class Kind
    {
        RegisterPath,   ///< full dotted path registered verbatim
        RegisterPrefix, ///< literal fragment ending in '.' (or a
                        ///< uniquePrefix() base)
        RegisterSuffix, ///< literal fragment starting with '.'
        RegisterInfix,  ///< literal fragment with computed ends
        Lookup,         ///< by-name lookup of a full dotted path
    };
    Kind kind = Kind::RegisterPath;
    std::string text;  ///< the literal
    int line = 0;
    std::string call;  ///< e.g. "counter", "findCounter"
};

/** True when @p part ("tests/", "sim/random.") begins @p scope or
 *  one of its path components: the test behind every path-based
 *  rule exemption (see Input). */
bool scopeHas(const std::string &scope, const std::string &part);

/** Everything pass 1 learns about one translation unit. */
struct TuAnalysis
{
    std::string path;
    std::string scope; ///< decides path-based exemptions (see Input)
    Stripped stripped;
    std::vector<Token> tokens;
    SymbolTable symbols;  ///< TU-local (no global aliases yet)
    std::vector<IncludeDirective> includes;
    std::vector<MetricUse> metric_uses;
    std::vector<Finding> findings; ///< filled by runTuRules()
};

/** Pass 1: lexes and indexes one TU. Emits no findings. */
TuAnalysis analyzeTu(const Input &file, const std::string &content);

/**
 * Pass 2: runs every per-TU rule, appending to @p tu.findings.
 * @p global_aliases extends alias resolution repo-wide (may be
 * null); @p extra_tracked injects container declarations from the
 * companion header (may be null). The effective symbol table is
 * rebuilt with the globals so alias-typed members resolve across
 * TUs.
 */
void runTuRules(TuAnalysis &tu,
                const std::map<std::string, ContainerKind>
                    *global_aliases,
                const std::vector<TrackedVar> *extra_tracked);

} // namespace v3sim::simlint

#endif // V3SIM_TOOLS_SIMLINT_RULES_HH
