#include "dispatcher.hh"

namespace latte::service
{

using runner::Json;

Json
errorResponse(const std::string &code, const std::string &message,
              const Json &request)
{
    Json::Object error;
    error["code"] = Json(code);
    error["message"] = Json(message);
    Json::Object response;
    response["ok"] = Json(false);
    response["error"] = Json(std::move(error));
    if (request.type() == Json::Type::Object && request.contains("id"))
        response["id"] = request.at("id");
    return Json(std::move(response));
}

namespace
{

/** {"ok":true,"type":<echo>} (+ echoed id), ready for extra fields. */
Json::Object
okResponse(const std::string &type, const Json &request)
{
    Json::Object response;
    response["ok"] = Json(true);
    response["type"] = Json(type);
    if (request.contains("id"))
        response["id"] = request.at("id");
    return response;
}

bool
jobIdOf(const Json &request, std::uint64_t &id)
{
    if (!request.contains("job") ||
        request.at("job").type() != Json::Type::Uint)
        return false;
    id = request.at("job").asUint();
    return true;
}

} // namespace

runner::Json
RequestDispatcher::handle(const std::string &line, Session &session)
{
    std::string parse_error;
    const Json request = Json::parse(line, &parse_error);
    if (!parse_error.empty())
        return errorResponse("bad_json", parse_error, Json());
    if (request.type() != Json::Type::Object ||
        !request.contains("type") ||
        request.at("type").type() != Json::Type::String)
        return errorResponse("bad_json",
                             "request must be an object with a "
                             "string \"type\"",
                             request);

    // Any request may (re)name the session's client identity; it is
    // sticky so subsequent requests on the connection inherit it.
    if (request.contains("client") &&
        request.at("client").type() == Json::Type::String)
        session.client = request.at("client").asString();

    const std::string &type = request.at("type").asString();

    if (type == "ping")
        return Json(okResponse("ping", request));

    if (type == "submit") {
        if (!request.contains("spec"))
            return errorResponse("invalid_spec", "missing \"spec\"",
                                 request);
        runner::SweepSpec spec;
        std::string spec_error;
        if (!runner::SweepSpec::fromJson(request.at("spec"), spec,
                                         &spec_error))
            return errorResponse("invalid_spec", spec_error, request);
        std::int64_t priority = 0;
        if (request.contains("priority") &&
            !runner::decodeJson(request.at("priority"), priority,
                                &spec_error))
            return errorResponse("invalid_spec", "priority: " + spec_error,
                                 request);

        std::string submit_error;
        const std::uint64_t id =
            service_.submit(spec, session.client, priority,
                            &submit_error);
        if (id == 0) {
            std::string code = "invalid_spec";
            if (submit_error == "queue full")
                code = "queue_full";
            else if (submit_error == "client quota exceeded")
                code = "quota_exceeded";
            return errorResponse(code, submit_error, request);
        }
        Json::Object response = okResponse("submit", request);
        response["job"] = Json(id);
        return Json(std::move(response));
    }

    if (type == "status") {
        std::uint64_t id = 0;
        if (!jobIdOf(request, id))
            return errorResponse("unknown_job", "missing \"job\"",
                                 request);
        const auto info = service_.job(id);
        if (!info)
            return errorResponse("unknown_job",
                                 "no such job: " + std::to_string(id),
                                 request);
        Json::Object response = okResponse("status", request);
        response["info"] = info->toJson();
        return Json(std::move(response));
    }

    if (type == "wait") {
        std::uint64_t id = 0;
        if (!jobIdOf(request, id))
            return errorResponse("unknown_job", "missing \"job\"",
                                 request);
        JobInfo info;
        if (!service_.waitJob(id, info))
            return errorResponse("unknown_job",
                                 "no such job: " + std::to_string(id),
                                 request);
        Json::Object response = okResponse("wait", request);
        response["info"] = info.toJson();
        return Json(std::move(response));
    }

    if (type == "cancel") {
        std::uint64_t id = 0;
        if (!jobIdOf(request, id))
            return errorResponse("unknown_job", "missing \"job\"",
                                 request);
        std::string cancel_error;
        if (!service_.cancel(id, &cancel_error))
            return errorResponse("unknown_job", cancel_error, request);
        return Json(okResponse("cancel", request));
    }

    if (type == "jobs") {
        Json::Array list;
        for (const JobInfo &info : service_.jobs())
            list.push_back(info.toJson());
        Json::Object response = okResponse("jobs", request);
        response["jobs"] = Json(std::move(list));
        return Json(std::move(response));
    }

    if (type == "stats") {
        const ServiceCounters counters = service_.counters();
        Json::Object stats;
        stats["submitted"] = Json(counters.submitted);
        stats["rejected"] = Json(counters.rejected);
        stats["completed"] = Json(counters.completed);
        stats["failed"] = Json(counters.failed);
        stats["cancelled"] = Json(counters.cancelled);
        stats["jobs_served_from_cache"] =
            Json(counters.jobsServedFromCache);
        stats["recovered"] = Json(counters.recovered);
        stats["queue_depth"] = Json(
            static_cast<std::uint64_t>(service_.queueDepth()));
        Json::Object response = okResponse("stats", request);
        response["stats"] = Json(std::move(stats));
        return Json(std::move(response));
    }

    if (type == "metrics") {
        Json::Object response = okResponse("metrics", request);
        response["prometheus"] = Json(service_.metricsPrometheus());
        return Json(std::move(response));
    }

    if (type == "subscribe") {
        // job present: that job's events only; absent: every event.
        std::uint64_t filter = 0;
        const bool filtered = jobIdOf(request, filter);
        auto send = session.send;
        if (!send)
            return errorResponse("unknown_type",
                                 "session cannot receive events",
                                 request);
        const std::uint64_t token = service_.addListener(
            [send, filtered, filter](const Json &event) {
                if (filtered &&
                    (!event.contains("job") ||
                     event.at("job").asUint() != filter))
                    return;
                send(event);
            });
        session.listeners.push_back(token);
        return Json(okResponse("subscribe", request));
    }

    if (type == "shutdown") {
        // Deferred: invoking the hook here would let the daemon close
        // this connection before the acknowledgement is written.
        if (shutdown_)
            session.afterResponse = shutdown_;
        return Json(okResponse("shutdown", request));
    }

    return errorResponse("unknown_type",
                         "unknown request type '" + type + "'",
                         request);
}

void
RequestDispatcher::closeSession(Session &session)
{
    for (const std::uint64_t token : session.listeners)
        service_.removeListener(token);
    session.listeners.clear();
}

} // namespace latte::service
