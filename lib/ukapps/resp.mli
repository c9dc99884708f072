(** RESP2 — the Redis serialization protocol (wire format used by the
    Redis-like server and redis-benchmark-like client of Figs 12 and 18).
    The one command decoder and the one reply decoder, shared by the
    socket and netbuf datapaths. *)

type value =
  | Simple of string  (** +OK\r\n *)
  | Error of string  (** -ERR ...\r\n *)
  | Integer of int  (** :42\r\n *)
  | Bulk of string  (** $3\r\nfoo\r\n *)
  | Null  (** $-1\r\n *)
  | Array of value list  (** *2\r\n... *)

val encode : value -> string

val encode_command : string list -> string
(** A client command as an array of bulk strings. *)

(** {1 Command scanner} *)

val max_args : int
(** 64: the most arguments one command may carry. *)

val scan_command :
  bytes -> int -> int -> (string list * int, [ `Incomplete | `Bad ]) result
(** [scan_command buf pos limit] decodes the command (an array of bulk
    strings) starting at [pos] in [buf[pos, limit)], in place: [Ok (args,
    next)] with [next] the offset just past it. [`Incomplete] means every
    byte so far is a valid prefix. [`Bad] is a protocol error: another
    type byte, more than {!max_args} arguments, a bulk length over
    {!Lineserv.max_pending}, or a bulk body not followed by CRLF. *)

(** {1 Reply scanner} *)

type reply_scanner
(** Incremental reply-boundary state (bulk bytes left to skip + partial
    header line), so replies that straddle deliveries count once. *)

val reply_scanner : unit -> reply_scanner

val scan_replies :
  reply_scanner -> bytes -> int -> int -> on_reply:([ `Ok | `Err ] -> unit) -> unit
(** Feed the scanner [len] bytes at [off]; [on_reply] fires once per
    complete reply, regardless of how the stream is segmented. Simple
    strings, integers, bulk strings and nulls are [`Ok]; error replies and
    anything else (arrays included — no client here issues array-valued
    commands) are [`Err]. *)
