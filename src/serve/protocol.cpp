#include "serve/protocol.hpp"

#include <utility>

namespace hcs::serve {

namespace {

bool fail(std::string* error, std::string what) {
  if (error != nullptr) *error = std::move(what);
  return false;
}

/// The cell object: CellKey's fields through the shared field parser
/// (core/cell_key.hpp), plus hcsd's own rules -- strategy and dimension
/// are required, and any other member is an error.
bool parse_cell(const Json& json, Request* out, std::string* error) {
  if (!json.is_object()) return fail(error, "\"cell\" must be an object");
  if (json.get("strategy") == nullptr) {
    return fail(error, "cell missing string \"strategy\"");
  }
  if (json.get("dimension") == nullptr) {
    return fail(error, "cell missing unsigned \"dimension\"");
  }
  for (const auto& [name, value] : json.members()) {
    switch (parse_cell_field(name, value, &out->key, &out->delay, error)) {
      case CellField::kParsed: break;
      case CellField::kInvalid: return false;
      case CellField::kUnknown:
        return fail(error, "unknown cell field \"" + name + "\"");
    }
  }
  return true;
}

}  // namespace

bool parse_request(std::string_view line, Request* out, std::string* error) {
  std::string parse_error;
  const std::optional<Json> doc = Json::parse(line, &parse_error);
  if (!doc.has_value()) {
    return fail(error, "request is not valid JSON: " + parse_error);
  }
  if (!doc->is_object()) return fail(error, "request must be a JSON object");

  Request req;
  // kUint-only: Json(int64) normalizes non-negative values to kUint, so a
  // kInt id is negative and as_uint() on it would abort instead of failing.
  const Json* id = doc->get("id");
  if (id == nullptr || id->type() != Json::Type::kUint) {
    return fail(error, "request missing unsigned \"id\"");
  }
  req.id = id->as_uint();

  const Json* op = doc->get("op");
  if (op == nullptr || !op->is_string()) {
    return fail(error, "request missing string \"op\"");
  }
  const std::string& op_name = op->as_string();
  if (op_name == "run") {
    req.op = Op::kRun;
  } else if (op_name == "stats") {
    req.op = Op::kStats;
  } else if (op_name == "ping") {
    req.op = Op::kPing;
  } else if (op_name == "shutdown") {
    req.op = Op::kShutdown;
  } else {
    return fail(error, "unknown op \"" + op_name + "\"");
  }

  for (const auto& [name, value] : doc->members()) {
    if (name == "id" || name == "op" || name == "cell") continue;
    if (name == "trace") {
      if (value.type() != Json::Type::kBool) {
        return fail(error, "\"trace\" must be a bool");
      }
      req.trace = value.as_bool();
    } else if (name == "shards") {
      if (value.type() != Json::Type::kUint) {
        return fail(error, "\"shards\" must be an unsigned integer");
      }
      req.shards = static_cast<std::uint32_t>(value.as_uint());
    } else {
      return fail(error, "unknown request field \"" + name + "\"");
    }
  }

  if (req.op == Op::kRun) {
    const Json* cell = doc->get("cell");
    if (cell == nullptr) {
      return fail(error, "run request missing \"cell\"");
    }
    if (!parse_cell(*cell, &req, error)) return false;
  }

  *out = std::move(req);
  return true;
}

std::string ok_reply(std::uint64_t id, bool cached, bool coalesced,
                     const std::string& body) {
  std::string out = "{\"id\":" + std::to_string(id) + ",\"ok\":true";
  out += ",\"cached\":";
  out += cached ? "true" : "false";
  out += ",\"coalesced\":";
  out += coalesced ? "true" : "false";
  // The body is spliced in verbatim: cached bytes replay byte-identical.
  out += ",\"body\":";
  out += body;
  out += "}\n";
  return out;
}

std::string error_reply(std::uint64_t id, const std::string& message) {
  Json doc = Json::object();
  doc.set("id", id);
  doc.set("ok", false);
  doc.set("error", message);
  return doc.dump_compact() + "\n";
}

}  // namespace hcs::serve
