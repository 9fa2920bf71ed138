(** A real transport: Amoeba RPC frames over TCP.

    This carries the same messages as the simulated {!Transport}, but
    across actual sockets, so the servers can be deployed as standalone
    daemons ([bin/bulletd.ml]) and driven from other processes
    ([bin/bullet_ctl.ml]). No virtual-time accounting happens here —
    wall-clock is real.

    [serve_forever] handles each connection in its own thread, but a
    mutex serialises request handling — matching the paper's server: one
    dedicated machine processing one request at a time, while many
    clients stay connected. *)

type server

val listen : port:int -> unit -> server
(** Bind and listen on 127.0.0.1:[port], with a backlog of 16 pending
    connections. Raises [Unix.Unix_error] on failure (e.g. port in
    use). *)

val bound_port : server -> int
(** The actual port (useful with [~port:0]). *)

val serve_forever : server -> handler:(Message.t -> Message.t option) -> unit
(** Accept loop: decode each frame, run the handler, reply. Each
    connection gets a thread; the handler itself runs under a mutex.
    Malformed frames get a [Bad_request] reply; handler exceptions
    become [Server_failure]. A handler returning [None] sends no reply
    and drops the connection — how a fault plan loses a message on a
    stream carrier; the client sees the connection close and may retry
    on a fresh one. Returns only if the server socket is closed (raises
    [Unix.Unix_error]). *)

val serve_connections : server -> handler:(Message.t -> Message.t option) -> int -> unit
(** Like {!serve_forever} but returns after serving [n] connections; for
    tests. *)

val shutdown : server -> unit

type conn
(** A client connection. *)

val connect : ?host:string -> port:int -> unit -> conn

val trans : conn -> Message.t -> Message.t
(** One request/reply exchange. Raises [Failure] on protocol errors and
    [Unix.Unix_error] on socket errors. *)

val close : conn -> unit
