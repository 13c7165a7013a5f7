"""Reference walk: `pipeline._walk` as it was when a generator opened each direction's records.

`reference_open_protected` decrypts a direction's protected records in
order and yields what they carry; the walk consumes it and stops pulling
once the direction's boundary is found.  The differential test in
test_pipeline.py requires `pipeline._walk` to stop for the same reason,
find the same boundaries and metadata, and call `decrypt_record` as many
times as this walk does, on any client and server flights.
"""

from tlslayers.keyschedule import decrypt_record, derive_traffic_keys
from tlslayers.timeline import http_status, starts_http_request
from tlslayers.tlswire import (
    CT_APPLICATION_DATA,
    CT_HANDSHAKE,
    HT_CLIENT_HELLO,
    HT_FINISHED,
    HT_KEY_UPDATE,
    HT_SERVER_HELLO,
    HandshakeAccumulator,
    first_handshake_message,
    group_name,
    parse_client_hello,
    parse_records,
    parse_server_hello,
)


def reference_walk(conn, keystore, found: dict) -> str | None:
    """Put the boundaries and handshake metadata the walk finds in `found`; why it stopped early, or None."""
    if conn.t_syn is None:
        return "no_syn"
    if conn.t_synack is None:
        return "no_synack"

    client_records, _c_tail = parse_records(conn.client_to_server)
    server_records, _s_tail = parse_records(conn.server_to_client)

    msg_type, message, ts = first_handshake_message(client_records)
    if msg_type != HT_CLIENT_HELLO:
        return "no_clienthello"
    ch = parse_client_hello(message)
    found["t_clienthello"], found["client_hello_len"] = ts, ch.total_length

    msg_type, message, _ts = first_handshake_message(server_records)
    if msg_type != HT_SERVER_HELLO:
        return "no_serverhello"
    sh = parse_server_hello(message)
    if sh.is_hrr:
        return "hrr"
    found["cipher_suite"], found["server_hello_len"] = sh.cipher_suite, sh.total_length
    if sh.selected_group is not None:
        found["group"] = group_name(sh.selected_group)
        for gid, length in ch.key_shares:
            if gid == sh.selected_group:
                found["key_share_len"] = length
                break

    if keystore is None:
        return "no_keys"
    keys = []
    # in keylog.LABELS order: the first missing secret stops the walk before later ones are derived
    for secret in keystore.secrets(ch.client_random):
        if secret is None:
            return "no_keys"
        keys.append(derive_traffic_keys(secret, sh.cipher_suite))
    client_hs, server_hs, client_ap, server_ap = keys

    # decryption stops once each direction's boundary is found
    t_finished = None
    for msg_type, data, ts in reference_open_protected(client_records, client_hs, client_ap):
        if msg_type == HT_FINISHED:
            if t_finished is None:
                t_finished = found["t_client_finished"] = ts
        elif msg_type == HT_KEY_UPDATE:
            return "undecryptable"
        elif msg_type is None and starts_http_request(data):
            if t_finished is None:
                return "no_finished"  # a request before the client Finished
            t_get = found["t_http_get"] = ts
            break
    else:
        return "no_finished" if t_finished is None else "no_request"

    # TTLB anchor from record metadata alone: the last server application-data byte
    for rec in reversed(server_records):
        if rec.content_type == CT_APPLICATION_DATA:
            found["t_response_last"] = conn.server_to_client.timestamp_at(rec.end - 1)
            break

    for msg_type, data, ts in reference_open_protected(server_records, server_hs, server_ap):
        if msg_type is None:
            status = http_status(data, ts, t_get)
            if status is not None:
                found["http_status"], found["t_http_200"] = status, ts
                return None
    return "no_response"


def reference_open_protected(records, hs_keys, ap_keys):
    """Decrypt a direction's protected records in order.

    Yields (msg_type, body, first-byte ts) for each complete handshake
    message, and (None, plaintext, ts) for each application-data record;
    other inner types are skipped.  After the record that completes a
    Finished message with no handshake bytes pending, the application
    traffic keys replace the handshake keys.  A record that does not open
    raises AuthFailure or EmptyInnerPlaintext.
    """
    keys = hs_keys
    acc = HandshakeAccumulator()
    for rec in records:
        if rec.content_type != CT_APPLICATION_DATA:
            continue
        inner_type, plaintext = decrypt_record(rec, keys)
        if inner_type == CT_HANDSHAKE:
            finished = False
            for msg_type, body, ts in acc.feed(plaintext, rec.timestamp_ns):
                finished = finished or msg_type == HT_FINISHED
                yield msg_type, body, ts
            if finished and acc.pending == 0:
                keys = ap_keys
        elif inner_type == CT_APPLICATION_DATA:
            yield None, plaintext, rec.timestamp_ns
