#include "scenario/parser.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "scenario/keys.hpp"
#include "scenario/parse_util.hpp"

namespace nbmg::scenario {
namespace {

struct LineContext {
    std::string_view source;
    std::size_t line = 0;

    [[noreturn]] void fail(const std::string& reason) const {
        std::ostringstream out;
        out << source << ":" << line << ": " << reason;
        throw ScenarioError(out.str());
    }
};

}  // namespace

ScenarioSpec parse_scenario_text(std::string_view text,
                                 std::string_view source_name) {
    const std::span<const KeyRow> rows = scenario_keys();
    // Each row's value and the line it was given on (0 = not given).
    struct Given {
        std::string value;
        std::size_t line = 0;
    };
    std::vector<Given> given(rows.size());
    // key (or the key it shares a slot with) -> line it was first set on.
    std::map<std::string_view, std::size_t> seen;

    LineContext ctx{source_name, 0};
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t newline = text.find('\n', start);
        const std::string_view raw =
            text.substr(start, newline == std::string_view::npos
                                   ? std::string_view::npos
                                   : newline - start);
        start = newline == std::string_view::npos ? text.size() + 1 : newline + 1;
        ++ctx.line;

        const std::string_view line = trim(raw);
        if (line.empty() || line.front() == '#') continue;

        const std::size_t equals = line.find('=');
        if (equals == std::string_view::npos) {
            ctx.fail("expected 'key = value', got '" + std::string(line) + "'");
        }
        const std::string key{trim(line.substr(0, equals))};
        if (key.empty()) ctx.fail("missing key before '='");
        const auto row = std::find_if(rows.begin(), rows.end(), [&](const KeyRow& r) {
            return key == r.key;
        });
        if (row == rows.end()) ctx.fail("unknown key '" + key + "'");
        const auto [first, fresh] =
            seen.emplace(row->same_as != nullptr ? row->same_as : row->key, ctx.line);
        if (!fresh) {
            ctx.fail("duplicate key '" + key + "' (first set on line " +
                     std::to_string(first->second) + ")");
        }
        given[static_cast<std::size_t>(row - rows.begin())] = {
            std::string(trim(line.substr(equals + 1))), ctx.line};
    }

    // Table order, so every row a `when` reads is applied before it.
    ScenarioSpec spec;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (given[i].line == 0) continue;
        ctx.line = given[i].line;
        const KeyRow& row = rows[i];
        const KeyInput input{given[i].value, false};
        if (row.when != nullptr && !row.when(spec, input)) {
            ctx.fail(std::string("'") + row.key + "' requires " + row.needs);
        }
        if (const std::string reason = row.set(spec, input); !reason.empty()) {
            ctx.fail("bad value '" + input.value + "' for key '" + row.key + "': " + reason);
        }
    }
    // The given rows' checks on the finished spec, each at its own line;
    // then validate() for the rows no line gave and the rules no row
    // carries.
    if (const Refusal refusal =
            refused_row(spec, [&](std::size_t i) { return given[i].line != 0; })) {
        const Given& at = given[static_cast<std::size_t>(refusal.row - rows.data())];
        ctx.line = at.line;
        ctx.fail("bad value '" + at.value + "' for key '" + refusal.row->key +
                 "': " + refusal.reason);
    }
    try {
        spec.validate();
    } catch (const std::invalid_argument& error) {
        throw ScenarioError(std::string(source_name) + ": " + error.what());
    }
    return spec;
}

ScenarioSpec load_scenario_file(const std::string& path) {
    std::ifstream file(path, std::ios::binary);
    if (!file) {
        throw ScenarioError("cannot read scenario file '" + path + "'");
    }
    std::ostringstream contents;
    contents << file.rdbuf();
    return parse_scenario_text(contents.str(), path);
}

}  // namespace nbmg::scenario
