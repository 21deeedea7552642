#include "src/chaos/scenario.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace sdr {

namespace {

Error ParseErr(const std::string& what) {
  return Error(ErrorCode::kParseError, what);
}

std::vector<std::string> SplitWhitespace(const std::string& text) {
  std::vector<std::string> tokens;
  std::istringstream in(text);
  std::string token;
  while (in >> token) {
    tokens.push_back(token);
  }
  return tokens;
}

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

// key=value tokens; returns false on tokens without '='.
bool SplitKeyValue(const std::string& token, std::string* key,
                   std::string* value) {
  size_t eq = token.find('=');
  if (eq == std::string::npos || eq == 0) {
    return false;
  }
  *key = token.substr(0, eq);
  *value = token.substr(eq + 1);
  return true;
}

Result<double> ParseDouble(const std::string& text) {
  char* end = nullptr;
  double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    return ParseErr("bad number: '" + text + "'");
  }
  return v;
}

Result<bool> ParseBool(const std::string& text) {
  if (text == "true" || text == "1") {
    return true;
  }
  if (text == "false" || text == "0") {
    return false;
  }
  return ParseErr("bad boolean: '" + text + "' (want true/false)");
}

Result<int> ParseIndex(const std::string& text) {
  char* end = nullptr;
  long v = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || v < 0) {
    return ParseErr("bad index: '" + text + "'");
  }
  return static_cast<int>(v);
}

const char* RoleNoun(NodeSelector::Role role, bool plural) {
  switch (role) {
    case NodeSelector::Role::kSlave:
      return plural ? "slaves" : "slave";
    case NodeSelector::Role::kMaster:
      return plural ? "masters" : "master";
    case NodeSelector::Role::kAuditor:
      return plural ? "auditors" : "auditor";
    case NodeSelector::Role::kClient:
      return plural ? "clients" : "client";
    case NodeSelector::Role::kAll:
      return "all";
  }
  return "?";
}

}  // namespace

// ---------------------------------------------------------------------------
// Times.
// ---------------------------------------------------------------------------

std::string FormatSimTime(SimTime t) {
  char buf[48];
  if (t % kSecond == 0) {
    std::snprintf(buf, sizeof(buf), "%llds",
                  static_cast<long long>(t / kSecond));
  } else if (t % kMillisecond == 0) {
    std::snprintf(buf, sizeof(buf), "%lldms",
                  static_cast<long long>(t / kMillisecond));
  } else {
    std::snprintf(buf, sizeof(buf), "%lldus", static_cast<long long>(t));
  }
  return buf;
}

Result<SimTime> ParseSimTime(const std::string& text) {
  size_t i = 0;
  while (i < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[i])) || text[i] == '.' ||
          text[i] == '-')) {
    ++i;
  }
  if (i == 0) {
    return ParseErr("bad time: '" + text + "'");
  }
  auto magnitude = ParseDouble(text.substr(0, i));
  if (!magnitude.ok()) {
    return ParseErr("bad time: '" + text + "'");
  }
  std::string unit = text.substr(i);
  double scale = 0;
  if (unit == "us") {
    scale = static_cast<double>(kMicrosecond);
  } else if (unit == "ms") {
    scale = static_cast<double>(kMillisecond);
  } else if (unit == "s") {
    scale = static_cast<double>(kSecond);
  } else if (unit == "m") {
    scale = static_cast<double>(kMinute);
  } else {
    return ParseErr("bad time unit in '" + text + "' (want us/ms/s/m)");
  }
  double value = *magnitude * scale;
  if (value < 0) {
    return ParseErr("negative time: '" + text + "'");
  }
  return static_cast<SimTime>(value);
}

// ---------------------------------------------------------------------------
// Selectors.
// ---------------------------------------------------------------------------

std::string NodeSelector::ToString() const {
  if (role == Role::kAll) {
    return "all";
  }
  if (pick == Pick::kRandom) {
    return "random:" + std::to_string(arg);
  }
  if (pick == Pick::kIndex) {
    return std::string(RoleNoun(role, /*plural=*/false)) + ":" +
           std::to_string(arg);
  }
  std::string out = RoleNoun(role, /*plural=*/true);
  switch (pick) {
    case Pick::kAll:
      return out + ":*";
    case Pick::kOdd:
      return out + ":odd";
    case Pick::kEven:
      return out + ":even";
    default:
      return out;  // unreachable
  }
}

Result<NodeSelector> NodeSelector::Parse(const std::string& text) {
  if (text == "all") {
    return Everything();
  }
  size_t colon = text.find(':');
  if (colon == std::string::npos) {
    return ParseErr("bad selector: '" + text +
                    "' (want role:pick, e.g. slave:2 or slaves:*)");
  }
  std::string role_text = text.substr(0, colon);
  std::string pick_text = text.substr(colon + 1);

  if (role_text == "random") {
    auto k = ParseIndex(pick_text);
    if (!k.ok() || *k <= 0) {
      return ParseErr("bad selector: '" + text + "' (random:k wants k >= 1)");
    }
    return RandomSlaves(*k);
  }

  Role role;
  if (role_text == "slave" || role_text == "slaves") {
    role = Role::kSlave;
  } else if (role_text == "master" || role_text == "masters") {
    role = Role::kMaster;
  } else if (role_text == "auditor" || role_text == "auditors") {
    role = Role::kAuditor;
  } else if (role_text == "client" || role_text == "clients") {
    role = Role::kClient;
  } else {
    return ParseErr("bad selector role: '" + role_text + "'");
  }

  NodeSelector sel;
  sel.role = role;
  if (pick_text == "*") {
    sel.pick = Pick::kAll;
  } else if (pick_text == "odd") {
    sel.pick = Pick::kOdd;
  } else if (pick_text == "even") {
    sel.pick = Pick::kEven;
  } else {
    auto idx = ParseIndex(pick_text);
    if (!idx.ok()) {
      return ParseErr("bad selector pick: '" + text + "'");
    }
    sel.pick = Pick::kIndex;
    sel.arg = *idx;
  }
  return sel;
}

// ---------------------------------------------------------------------------
// Behavior patches.
// ---------------------------------------------------------------------------

void BehaviorPatch::ApplyTo(Slave::Behavior& behavior) const {
  if (lie_probability) {
    behavior.lie_probability = *lie_probability;
  }
  if (inconsistent_lie_probability) {
    behavior.inconsistent_lie_probability = *inconsistent_lie_probability;
  }
  if (drop_probability) {
    behavior.drop_probability = *drop_probability;
  }
  if (ignore_updates) {
    behavior.ignore_updates = *ignore_updates;
  }
  if (serve_despite_stale) {
    behavior.serve_despite_stale = *serve_despite_stale;
  }
  if (fork_views) {
    behavior.fork_views = *fork_views;
  }
  if (stale_pledge) {
    behavior.stale_pledge = *stale_pledge;
  }
  if (split_serve) {
    behavior.split_serve = *split_serve;
  }
}

bool BehaviorPatch::empty() const {
  return !lie_probability && !inconsistent_lie_probability &&
         !drop_probability && !ignore_updates && !serve_despite_stale &&
         !fork_views && !stale_pledge && !split_serve;
}

std::string BehaviorPatch::ToString() const {
  std::string out;
  auto append = [&out](const std::string& kv) {
    if (!out.empty()) {
      out += ' ';
    }
    out += kv;
  };
  if (lie_probability) {
    append("lie_probability=" + FormatDouble(*lie_probability));
  }
  if (inconsistent_lie_probability) {
    append("inconsistent_lie_probability=" +
           FormatDouble(*inconsistent_lie_probability));
  }
  if (drop_probability) {
    append("drop_probability=" + FormatDouble(*drop_probability));
  }
  if (ignore_updates) {
    append(std::string("ignore_updates=") +
           (*ignore_updates ? "true" : "false"));
  }
  if (serve_despite_stale) {
    append(std::string("serve_despite_stale=") +
           (*serve_despite_stale ? "true" : "false"));
  }
  if (fork_views) {
    append(std::string("fork_views=") + (*fork_views ? "true" : "false"));
  }
  if (stale_pledge) {
    append(std::string("stale_pledge=") + (*stale_pledge ? "true" : "false"));
  }
  if (split_serve) {
    append(std::string("split_serve=") + (*split_serve ? "true" : "false"));
  }
  return out;
}

namespace {

Status ApplyBehaviorField(BehaviorPatch& patch, const std::string& key,
                          const std::string& value) {
  if (key == "ignore_updates" || key == "serve_despite_stale" ||
      key == "fork_views" || key == "stale_pledge" || key == "split_serve") {
    auto flag = ParseBool(value);
    if (!flag.ok()) {
      return flag.error();
    }
    if (key == "ignore_updates") {
      patch.ignore_updates = *flag;
    } else if (key == "serve_despite_stale") {
      patch.serve_despite_stale = *flag;
    } else if (key == "fork_views") {
      patch.fork_views = *flag;
    } else if (key == "stale_pledge") {
      patch.stale_pledge = *flag;
    } else {
      patch.split_serve = *flag;
    }
    return Status::Ok();
  }
  auto p = ParseDouble(value);
  if (!p.ok()) {
    return p.error();
  }
  if (*p < 0.0 || *p > 1.0) {
    return ParseErr("probability out of [0,1]: " + key + "=" + value);
  }
  if (key == "lie_probability") {
    patch.lie_probability = *p;
  } else if (key == "inconsistent_lie_probability") {
    patch.inconsistent_lie_probability = *p;
  } else if (key == "drop_probability") {
    patch.drop_probability = *p;
  } else {
    return ParseErr("unknown behavior field: '" + key + "'");
  }
  return Status::Ok();
}

}  // namespace

// ---------------------------------------------------------------------------
// Events and scenarios.
// ---------------------------------------------------------------------------

std::string ChaosEvent::ToString() const {
  std::string out = "at " + FormatSimTime(at) + " ";
  switch (type) {
    case Type::kCrash:
      return out + "crash " + a.ToString();
    case Type::kRestart:
      return out + "restart " + a.ToString();
    case Type::kPartition:
      return out + "partition " + a.ToString() + " " + b.ToString();
    case Type::kHeal:
      return out + "heal " + a.ToString() + " " + b.ToString();
    case Type::kHealAll:
      return out + "heal all";
    case Type::kSetLink:
      return out + "set_link " + a.ToString() + " " + b.ToString() +
             " latency=" + FormatSimTime(link.base_latency) +
             " jitter=" + FormatSimTime(link.jitter) +
             " loss=" + FormatDouble(link.drop_probability);
    case Type::kSetBehavior:
      return out + "set_behavior " + a.ToString() + " " + patch.ToString();
    case Type::kBurstWrites:
      return out + "burst_writes " + a.ToString() +
             " count=" + std::to_string(count);
    case Type::kPauseAuditor:
      return out + "pause_auditor " + a.ToString();
    case Type::kResumeAuditor:
      return out + "resume_auditor " + a.ToString();
  }
  return out;
}

std::string Scenario::ToString() const {
  std::string out;
  for (const ChaosEvent& event : events) {
    if (!out.empty()) {
      out += "; ";
    }
    out += event.ToString();
  }
  return out;
}

namespace {

// One statement: tokens after "at <time>" have been peeled off.
Result<ChaosEvent> ParseStatement(const std::string& statement) {
  std::vector<std::string> tokens = SplitWhitespace(statement);
  if (tokens.empty()) {
    return ParseErr("empty statement");
  }
  if (tokens.size() < 3 || tokens[0] != "at") {
    return ParseErr("statement must start with 'at <time> <verb>': '" +
                    statement + "'");
  }
  auto at = ParseSimTime(tokens[1]);
  if (!at.ok()) {
    return at.error();
  }
  ChaosEvent event;
  event.at = *at;
  const std::string& verb = tokens[2];
  std::vector<std::string> args(tokens.begin() + 3, tokens.end());

  auto need_one_selector = [&](ChaosEvent::Type type) -> Result<ChaosEvent> {
    if (args.size() != 1) {
      return ParseErr("'" + verb + "' wants exactly one selector: '" +
                      statement + "'");
    }
    auto sel = NodeSelector::Parse(args[0]);
    if (!sel.ok()) {
      return sel.error();
    }
    event.type = type;
    event.a = *sel;
    return event;
  };

  auto two_selectors = [&](size_t extra_args) -> Status {
    if (args.size() < 2 + extra_args) {
      return ParseErr("'" + verb + "' wants two selectors: '" + statement +
                      "'");
    }
    auto a = NodeSelector::Parse(args[0]);
    if (!a.ok()) {
      return a.error();
    }
    auto b = NodeSelector::Parse(args[1]);
    if (!b.ok()) {
      return b.error();
    }
    event.a = *a;
    event.b = *b;
    return Status::Ok();
  };

  if (verb == "crash") {
    return need_one_selector(ChaosEvent::Type::kCrash);
  }
  if (verb == "restart") {
    return need_one_selector(ChaosEvent::Type::kRestart);
  }
  if (verb == "pause_auditor") {
    auto parsed = need_one_selector(ChaosEvent::Type::kPauseAuditor);
    if (parsed.ok() && parsed->a.role != NodeSelector::Role::kAuditor &&
        parsed->a.role != NodeSelector::Role::kAll) {
      return ParseErr("pause_auditor wants an auditor selector: '" +
                      statement + "'");
    }
    return parsed;
  }
  if (verb == "resume_auditor") {
    auto parsed = need_one_selector(ChaosEvent::Type::kResumeAuditor);
    if (parsed.ok() && parsed->a.role != NodeSelector::Role::kAuditor &&
        parsed->a.role != NodeSelector::Role::kAll) {
      return ParseErr("resume_auditor wants an auditor selector: '" +
                      statement + "'");
    }
    return parsed;
  }
  if (verb == "partition") {
    if (Status s = two_selectors(0); !s.ok()) {
      return s.error();
    }
    if (args.size() != 2) {
      return ParseErr("partition wants exactly two selectors: '" + statement +
                      "'");
    }
    event.type = ChaosEvent::Type::kPartition;
    return event;
  }
  if (verb == "heal") {
    if (args.size() == 1 && args[0] == "all") {
      event.type = ChaosEvent::Type::kHealAll;
      return event;
    }
    if (Status s = two_selectors(0); !s.ok()) {
      return s.error();
    }
    if (args.size() != 2) {
      return ParseErr("heal wants two selectors or 'all': '" + statement +
                      "'");
    }
    event.type = ChaosEvent::Type::kHeal;
    return event;
  }
  if (verb == "set_link") {
    if (Status s = two_selectors(0); !s.ok()) {
      return s.error();
    }
    event.type = ChaosEvent::Type::kSetLink;
    for (size_t i = 2; i < args.size(); ++i) {
      std::string key, value;
      if (!SplitKeyValue(args[i], &key, &value)) {
        return ParseErr("set_link wants key=value, got '" + args[i] + "'");
      }
      if (key == "latency") {
        auto t = ParseSimTime(value);
        if (!t.ok()) {
          return t.error();
        }
        event.link.base_latency = *t;
      } else if (key == "jitter") {
        auto t = ParseSimTime(value);
        if (!t.ok()) {
          return t.error();
        }
        event.link.jitter = *t;
      } else if (key == "loss") {
        auto p = ParseDouble(value);
        if (!p.ok()) {
          return p.error();
        }
        if (*p < 0.0 || *p > 1.0) {
          return ParseErr("loss out of [0,1]: '" + value + "'");
        }
        event.link.drop_probability = *p;
      } else {
        return ParseErr("unknown set_link key: '" + key + "'");
      }
    }
    return event;
  }
  if (verb == "set_behavior") {
    if (args.size() < 2) {
      return ParseErr(
          "set_behavior wants a selector and at least one field=value: '" +
          statement + "'");
    }
    auto sel = NodeSelector::Parse(args[0]);
    if (!sel.ok()) {
      return sel.error();
    }
    if (sel->role != NodeSelector::Role::kSlave) {
      return ParseErr("set_behavior only applies to slaves: '" + statement +
                      "'");
    }
    event.type = ChaosEvent::Type::kSetBehavior;
    event.a = *sel;
    for (size_t i = 1; i < args.size(); ++i) {
      std::string key, value;
      if (!SplitKeyValue(args[i], &key, &value)) {
        return ParseErr("set_behavior wants field=value, got '" + args[i] +
                        "'");
      }
      if (Status s = ApplyBehaviorField(event.patch, key, value); !s.ok()) {
        return s.error();
      }
    }
    return event;
  }
  if (verb == "burst_writes") {
    if (args.empty()) {
      return ParseErr("burst_writes wants a client selector: '" + statement +
                      "'");
    }
    auto sel = NodeSelector::Parse(args[0]);
    if (!sel.ok()) {
      return sel.error();
    }
    if (sel->role != NodeSelector::Role::kClient) {
      return ParseErr("burst_writes only applies to clients: '" + statement +
                      "'");
    }
    event.type = ChaosEvent::Type::kBurstWrites;
    event.a = *sel;
    event.count = 10;
    for (size_t i = 1; i < args.size(); ++i) {
      std::string key, value;
      if (!SplitKeyValue(args[i], &key, &value) || key != "count") {
        return ParseErr("burst_writes wants count=<n>, got '" + args[i] + "'");
      }
      auto n = ParseIndex(value);
      if (!n.ok() || *n <= 0) {
        return ParseErr("bad burst_writes count: '" + value + "'");
      }
      event.count = *n;
    }
    return event;
  }
  return ParseErr("unknown chaos verb: '" + verb + "'");
}

}  // namespace

Result<Scenario> ParseScenario(const std::string& text) {
  Scenario scenario;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t semi = text.find(';', pos);
    std::string statement = text.substr(
        pos, semi == std::string::npos ? std::string::npos : semi - pos);
    // Skip blank segments (trailing ';', empty input).
    if (!SplitWhitespace(statement).empty()) {
      auto event = ParseStatement(statement);
      if (!event.ok()) {
        return event.error();
      }
      scenario.events.push_back(*event);
    }
    if (semi == std::string::npos) {
      break;
    }
    pos = semi + 1;
  }
  std::stable_sort(
      scenario.events.begin(), scenario.events.end(),
      [](const ChaosEvent& x, const ChaosEvent& y) { return x.at < y.at; });
  return scenario;
}

}  // namespace sdr
