#include "lexer.hh"

#include <cctype>
#include <sstream>

namespace v3sim::simlint
{

namespace
{

/** Marker left in stripped code at a string literal's opening
 *  quote; tokenize() splices the recorded literal back in here. */
constexpr char kLiteralMark = '\x01';

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::string
trim(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

/** Parses allow/allow-file annotations out of one comment chunk.
 *  (The tag itself is spelled via kTag only: writing it literally in
 *  a comment here would trip the parser on its own source.) */
void
parseAnnotations(const std::string &path, const std::string &comment,
                 int line, Stripped &out)
{
    static const std::string kTag = "simlint:allow";
    size_t at = 0;
    while ((at = comment.find(kTag, at)) != std::string::npos) {
        size_t cursor = at + kTag.size();
        bool file_scope = false;
        if (comment.compare(cursor, 5, "-file") == 0) {
            file_scope = true;
            cursor += 5;
        }
        auto bad = [&](const std::string &why) {
            out.annotation_findings.push_back(
                {path, line, "annotation", why});
        };
        if (cursor >= comment.size() || comment[cursor] != '(') {
            // Prose mention of the tag (docs, commit references):
            // only the '(' form is an annotation.
            at = cursor;
            continue;
        }
        // Match the closing ')' by depth: reasons may themselves
        // mention calls like run().
        size_t close = std::string::npos;
        int depth = 0;
        for (size_t i = cursor; i < comment.size(); ++i) {
            if (comment[i] == '(') {
                ++depth;
            } else if (comment[i] == ')' && --depth == 0) {
                close = i;
                break;
            }
        }
        if (close == std::string::npos) {
            bad("malformed simlint:allow annotation (missing ')')");
            break;
        }
        std::string body =
            comment.substr(cursor + 1, close - cursor - 1);
        if (body.find('<') != std::string::npos ||
            body.find('>') != std::string::npos) {
            // Grammar documentation ("<rule>: <reason>"), not an
            // annotation.
            at = close;
            continue;
        }
        size_t colon = body.find(':');
        if (colon == std::string::npos) {
            bad("simlint:allow needs \"rule: reason\"");
        } else {
            std::string rule = trim(body.substr(0, colon));
            std::string reason = trim(body.substr(colon + 1));
            if (rule.empty() || reason.empty()) {
                bad("simlint:allow needs a rule and a non-empty "
                    "reason");
            } else {
                if (file_scope)
                    out.file_allows.insert(rule);
                else
                    out.allows[line].insert(rule);
                out.suppressions.push_back(
                    {path, line, rule, reason, file_scope});
            }
        }
        at = close;
    }
}

} // namespace

bool
Stripped::allowed(const std::string &rule, int line) const
{
    if (file_allows.count(rule))
        return true;
    for (int l : {line, line - 1}) {
        auto it = allows.find(l);
        if (it != allows.end() && it->second.count(rule))
            return true;
    }
    return false;
}

Stripped
strip(const std::string &path, const std::string &content)
{
    Stripped out;
    std::vector<std::string> lines;
    {
        std::string line;
        std::istringstream in(content);
        while (std::getline(in, line)) {
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            lines.push_back(line);
        }
    }

    enum class State
    {
        Normal,
        BlockComment,
        String,
        RawString,
        Char,
    };
    State state = State::Normal;
    std::string raw_delim;      // for RawString: the ")delim" closer
    std::string literal;        // accumulating string literal text
    int literal_line = 0;

    for (size_t li = 0; li < lines.size(); ++li) {
        const std::string &src = lines[li];
        std::string code(src.size(), ' ');
        const int line_no = static_cast<int>(li) + 1;
        char prev_code = '\0';  // last non-blanked char emitted

        for (size_t i = 0; i < src.size(); ++i) {
            char c = src[i];
            char next = i + 1 < src.size() ? src[i + 1] : '\0';
            switch (state) {
            case State::Normal:
                if (c == '/' && next == '/') {
                    parseAnnotations(path, src.substr(i), line_no,
                                     out);
                    i = src.size();
                } else if (c == '/' && next == '*') {
                    // Block comment: collect its text (to end of
                    // line at least) for annotations.
                    size_t close = src.find("*/", i + 2);
                    parseAnnotations(
                        path,
                        src.substr(i, close == std::string::npos
                                          ? std::string::npos
                                          : close - i),
                        line_no, out);
                    if (close != std::string::npos) {
                        i = close + 1;
                    } else {
                        state = State::BlockComment;
                        i = src.size();
                    }
                } else if (c == '"') {
                    code[i] = kLiteralMark;
                    if (prev_code == 'R') {
                        // Drop the raw-string 'R' prefix from the
                        // code view so it never reads as an ident.
                        if (i > 0 && src[i - 1] == 'R')
                            code[i - 1] = ' ';
                        size_t open = src.find('(', i + 1);
                        if (open == std::string::npos)
                            open = src.size();
                        raw_delim.assign(1, ')');
                        raw_delim.append(src, i + 1, open - i - 1);
                        raw_delim.push_back('"');
                        state = State::RawString;
                        literal.clear();
                        literal_line = line_no;
                        i = open;
                    } else {
                        state = State::String;
                        literal.clear();
                        literal_line = line_no;
                    }
                } else if (c == '\'' && !isIdentChar(prev_code)) {
                    // Skip digit separators (1'000) via the prev
                    // check; otherwise a real char literal.
                    state = State::Char;
                } else {
                    code[i] = c;
                    if (c != ' ' && c != '\t')
                        prev_code = c;
                }
                break;
            case State::BlockComment: {
                size_t close = src.find("*/", i);
                parseAnnotations(
                    path,
                    src.substr(i, close == std::string::npos
                                      ? std::string::npos
                                      : close - i),
                    line_no, out);
                if (close != std::string::npos) {
                    i = close + 1;
                    state = State::Normal;
                } else {
                    i = src.size();
                }
                break;
            }
            case State::String:
                if (c == '\\') {
                    if (i + 1 < src.size())
                        literal.push_back(next);
                    ++i;
                } else if (c == '"') {
                    out.literals.push_back({literal_line, literal});
                    state = State::Normal;
                    prev_code = '"';
                } else {
                    literal.push_back(c);
                }
                break;
            case State::RawString: {
                size_t close = src.find(raw_delim, i);
                if (close != std::string::npos) {
                    literal.append(src, i, close - i);
                    out.literals.push_back({literal_line, literal});
                    i = close + raw_delim.size() - 1;
                    state = State::Normal;
                    prev_code = '"';
                } else {
                    literal.append(src, i, std::string::npos);
                    literal.push_back('\n');
                    i = src.size();
                }
                break;
            }
            case State::Char:
                if (c == '\\') {
                    ++i;
                } else if (c == '\'') {
                    state = State::Normal;
                    prev_code = '\'';
                }
                break;
            }
        }
        // Unterminated ordinary string at end of line: treat as
        // closed (lint input may be mid-edit; stay line-stable).
        if (state == State::String) {
            out.literals.push_back({literal_line, literal});
            state = State::Normal;
        }
        if (state == State::Char)
            state = State::Normal;
        out.code.push_back(std::move(code));
    }
    return out;
}

std::vector<Token>
tokenize(const Stripped &stripped)
{
    // Multi-char operators to merge, longest first. ">>" is left as
    // two '>' tokens on purpose: nested template closers
    // (map<int, vector<int>>) must count as two closes.
    static const std::vector<std::string> kOps = {
        "...", "->*", "::", "->", "<=", ">=", "==", "!=",
        "&&",  "||",  "<<", "+=", "-=", "*=", "/=", "++",
        "--",
    };

    std::vector<Token> out;
    size_t next_literal = 0;
    for (size_t li = 0; li < stripped.code.size(); ++li) {
        const std::string &line = stripped.code[li];
        const int line_no = static_cast<int>(li) + 1;
        size_t i = 0;
        while (i < line.size()) {
            char c = line[i];
            if (c == ' ' || c == '\t') {
                ++i;
                continue;
            }
            if (c == kLiteralMark) {
                if (next_literal < stripped.literals.size()) {
                    const Literal &lit =
                        stripped.literals[next_literal++];
                    out.push_back({Tok::String, lit.text, lit.line});
                }
                ++i;
                continue;
            }
            if (std::isdigit(static_cast<unsigned char>(c))) {
                size_t start = i;
                while (i < line.size() &&
                       (isIdentChar(line[i]) || line[i] == '.' ||
                        line[i] == '\''))
                    ++i;
                out.push_back({Tok::Number,
                               line.substr(start, i - start),
                               line_no});
                continue;
            }
            if (isIdentChar(c)) {
                size_t start = i;
                while (i < line.size() && isIdentChar(line[i]))
                    ++i;
                out.push_back({Tok::Ident,
                               line.substr(start, i - start),
                               line_no});
                continue;
            }
            bool merged = false;
            for (const std::string &op : kOps) {
                if (line.compare(i, op.size(), op) == 0) {
                    out.push_back({Tok::Punct, op, line_no});
                    i += op.size();
                    merged = true;
                    break;
                }
            }
            if (!merged) {
                out.push_back(
                    {Tok::Punct, std::string(1, c), line_no});
                ++i;
            }
        }
    }
    return out;
}

std::vector<IncludeDirective>
scanIncludes(const std::string &content)
{
    std::vector<IncludeDirective> out;
    std::istringstream in(content);
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        size_t i = line.find_first_not_of(" \t");
        if (i == std::string::npos || line[i] != '#')
            continue;
        i = line.find_first_not_of(" \t", i + 1);
        if (i == std::string::npos ||
            line.compare(i, 7, "include") != 0)
            continue;
        i = line.find_first_not_of(" \t", i + 7);
        if (i == std::string::npos)
            continue;
        char open = line[i];
        char close = open == '<' ? '>' : open == '"' ? '"' : '\0';
        if (close == '\0')
            continue;
        size_t end = line.find(close, i + 1);
        if (end == std::string::npos)
            continue;
        out.push_back({line_no, line.substr(i + 1, end - i - 1),
                       open == '<'});
    }
    return out;
}

} // namespace v3sim::simlint
