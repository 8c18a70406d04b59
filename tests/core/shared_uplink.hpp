// Test helper: the shared-uplink conference topology runSession also
// uses — every participant on session.link, no downlink fan-out, no
// arbiter — with one channel per participant from 'make'.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "semholo/core/conference.hpp"

namespace semholo::core {

inline ConferenceConfig sharedUplinkConference(
    const SessionConfig& session, std::size_t users,
    const std::function<std::unique_ptr<SemanticChannel>()>& make) {
    ConferenceConfig conf;
    conf.session = session;
    conf.sharedUplink = true;
    conf.enableDownlinks = false;
    conf.participants.resize(users);
    for (Participant& p : conf.participants)
        p.channelFactory = [make](const body::BodyModel&) { return make(); };
    return conf;
}

}  // namespace semholo::core
